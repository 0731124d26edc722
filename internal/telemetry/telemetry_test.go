package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestNilCollectorNoOp drives every method of a nil collector; nothing
// may panic, and the derived values must be the disabled sentinels.
func TestNilCollectorNoOp(t *testing.T) {
	var c *Collector
	if c.Enabled() {
		t.Fatal("nil collector reports Enabled")
	}
	if child := c.NewChild(); child != nil {
		t.Fatal("nil collector derived a non-nil child")
	}
	c.SetLevel(3)
	c.RecordMatch(5, 2)
	c.RecordLevel(10, 20, 30, 7)
	c.RecordPass("FM", 0, 9, 4, 12, 8)
	c.RecordRebalance(3)
	c.StartTimer(StageCoarsen).Stop()
	s := c.TakeStart(2, "ok", 42, 99)
	want := StartStats{Start: 2, Outcome: "ok", Cost: 42,
		Timings: StageTimings{TotalNS: 99}}
	if s.Start != want.Start || s.Outcome != want.Outcome ||
		s.Cost != want.Cost ||
		s.Timings != want.Timings ||
		s.Coarsening != nil || s.Passes != nil ||
		s.Rebalances != 0 || s.RebalanceMoved != 0 {
		t.Fatalf("nil TakeStart = %+v, want skeleton %+v", s, want)
	}
	c.AttachStarts([]StartStats{s})
	c.FinishRun(2, 1, 4, 0, 10, 10, 3)
	if c.Report() != nil {
		t.Fatal("nil collector returned a non-nil report")
	}
}

// TestCountersHandComputed checks the accumulated StartStats against a
// hand-computed two-level trace.
func TestCountersHandComputed(t *testing.T) {
	c := New()
	if !c.Enabled() {
		t.Fatal("armed collector reports disabled")
	}

	// Level 0: 10 cells match into 4 pairs + 2 singletons = 6 clusters.
	c.SetLevel(0)
	c.RecordMatch(4, 2)
	c.RecordLevel(6, 12, 30, 5)
	// Level 1: 6 cells match into 2 pairs + 2 singletons = 4 clusters.
	c.SetLevel(1)
	c.RecordMatch(2, 2)
	c.RecordLevel(4, 7, 16, 9)

	// Coarsest refinement at level 1, then level 0 after projection.
	c.RecordPass("CLIP", 0, 8, 5, 6, 4)
	c.SetLevel(0)
	c.RecordPass("CLIP", 0, 5, 3, 9, 7)
	c.RecordPass("CLIP", 1, 3, 3, 4, 0)
	c.RecordRebalance(2)
	c.RecordRebalance(0)

	s := c.TakeStart(0, "ok", 3, 1234)

	wantLevels := []LevelStat{
		{Level: 0, Cells: 6, Nets: 12, Pins: 30, MatchedPairs: 4, Singletons: 2, LargestClusterArea: 5},
		{Level: 1, Cells: 4, Nets: 7, Pins: 16, MatchedPairs: 2, Singletons: 2, LargestClusterArea: 9},
	}
	wantPasses := []PassStat{
		{Level: 1, Engine: "CLIP", Pass: 0, CutBefore: 8, CutAfter: 5, MovesTried: 6, MovesKept: 4, RolledBack: 2},
		{Level: 0, Engine: "CLIP", Pass: 0, CutBefore: 5, CutAfter: 3, MovesTried: 9, MovesKept: 7, RolledBack: 2},
		{Level: 0, Engine: "CLIP", Pass: 1, CutBefore: 3, CutAfter: 3, MovesTried: 4, MovesKept: 0, RolledBack: 4},
	}
	if len(s.Coarsening) != len(wantLevels) {
		t.Fatalf("got %d level entries, want %d", len(s.Coarsening), len(wantLevels))
	}
	for i, l := range s.Coarsening {
		if l != wantLevels[i] {
			t.Errorf("level[%d] = %+v, want %+v", i, l, wantLevels[i])
		}
	}
	if len(s.Passes) != len(wantPasses) {
		t.Fatalf("got %d pass entries, want %d", len(s.Passes), len(wantPasses))
	}
	for i, p := range s.Passes {
		if p != wantPasses[i] {
			t.Errorf("pass[%d] = %+v, want %+v", i, p, wantPasses[i])
		}
	}
	if s.Rebalances != 2 || s.RebalanceMoved != 2 {
		t.Errorf("rebalances = %d moved = %d, want 2 and 2", s.Rebalances, s.RebalanceMoved)
	}
	if s.Start != 0 || s.Outcome != "ok" || s.Cost != 3 {
		t.Errorf("header = %+v, want start 0 outcome ok cost 3", s)
	}
	if s.Timings.TotalNS != 1234 {
		t.Errorf("TotalNS = %d, want 1234", s.Timings.TotalNS)
	}

	// TakeStart must have reset the collector: a second take is empty
	// and does not re-observe the first start's counters.
	s2 := c.TakeStart(1, "failed", -1, 0)
	if s2.Coarsening != nil || s2.Passes != nil || s2.Rebalances != 0 || s2.RebalanceMoved != 0 {
		t.Fatalf("second TakeStart not reset: %+v", s2)
	}
	if s2.Start != 1 || s2.Outcome != "failed" || s2.Cost != -1 {
		t.Errorf("second header = %+v", s2)
	}
}

// TestMatchPendingFoldedOnce checks that RecordMatch counts fold into
// exactly the next RecordLevel and then clear.
func TestMatchPendingFoldedOnce(t *testing.T) {
	c := New()
	c.RecordMatch(3, 1)
	c.RecordLevel(4, 4, 8, 2)
	c.SetLevel(1)
	c.RecordLevel(2, 1, 2, 4) // no RecordMatch before this one
	s := c.TakeStart(0, "ok", 0, 0)
	if s.Coarsening[0].MatchedPairs != 3 || s.Coarsening[0].Singletons != 1 {
		t.Errorf("level 0 match counts = %+v", s.Coarsening[0])
	}
	if s.Coarsening[1].MatchedPairs != 0 || s.Coarsening[1].Singletons != 0 {
		t.Errorf("stale match counts leaked into level 1: %+v", s.Coarsening[1])
	}
}

// TestTimers checks stage attribution and that TakeStart clears the
// accumulated stage times.
func TestTimers(t *testing.T) {
	c := New()
	c.addNS(StageCoarsen, 10)
	c.addNS(StageRefine, 20)
	c.addNS(StageProject, 30)
	c.addNS(StageRebalance, 40)
	c.addNS(StageCoarsen, 5)
	s := c.TakeStart(0, "ok", 0, 100)
	want := StageTimings{CoarsenNS: 15, RefineNS: 20, ProjectNS: 30, RebalanceNS: 40, TotalNS: 100}
	if s.Timings != want {
		t.Fatalf("timings = %+v, want %+v", s.Timings, want)
	}
	s2 := c.TakeStart(1, "ok", 0, 0)
	if s2.Timings != (StageTimings{}) {
		t.Fatalf("timings not reset: %+v", s2.Timings)
	}

	// A real timer must accumulate a non-negative duration without
	// panicking; exact values are wall-clock and not asserted.
	tm := c.StartTimer(StageRefine)
	tm.Stop()
	s3 := c.TakeStart(2, "ok", 0, 0)
	if s3.Timings.RefineNS < 0 {
		t.Fatalf("negative refine time %d", s3.Timings.RefineNS)
	}
}

// TestReportAssembly covers AttachStarts order, FinishRun, StripTimings
// and the WriteJSON encoding.
func TestReportAssembly(t *testing.T) {
	c := New()
	c.AttachStarts([]StartStats{
		{Start: 0, Outcome: "ok", Cost: 7, Timings: StageTimings{CoarsenNS: 11, TotalNS: 50}},
		{Start: 1, Outcome: "failed", Cost: -1, Timings: StageTimings{TotalNS: 60}},
	})
	c.FinishRun(2, 42, 2, 0, 7, 7, 3)

	r := c.Report()
	if r == nil {
		t.Fatal("nil report from armed collector")
	}
	if r.Schema != SchemaVersion {
		t.Errorf("schema = %q, want %q", r.Schema, SchemaVersion)
	}
	if r.K != 2 || r.Seed != 42 || r.Starts != 2 || r.BestStart != 0 ||
		r.Cut != 7 || r.SumDegrees != 7 || r.Levels != 3 {
		t.Errorf("header = %+v", r)
	}
	if len(r.PerStart) != 2 || r.PerStart[0].Start != 0 || r.PerStart[1].Start != 1 {
		t.Fatalf("per-start order wrong: %+v", r.PerStart)
	}

	r.StripTimings()
	for i, s := range r.PerStart {
		if s.Timings != (StageTimings{}) {
			t.Errorf("per_start[%d] timings survived StripTimings: %+v", i, s.Timings)
		}
	}

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	out := buf.String()
	if !strings.HasSuffix(out, "\n") {
		t.Error("WriteJSON output missing trailing newline")
	}
	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("round-trip unmarshal: %v", err)
	}
	if back.Schema != SchemaVersion || len(back.PerStart) != 2 {
		t.Errorf("round-trip lost data: %+v", back)
	}
	for _, field := range []string{`"schema"`, `"per_start"`, `"matched_pairs"`, `"best_start"`} {
		if !strings.Contains(out, field) && field != `"matched_pairs"` {
			t.Errorf("encoded JSON missing %s", field)
		}
	}
	// Empty Coarsening/Passes must be omitted, not encoded as null.
	if strings.Contains(out, `"coarsening"`) || strings.Contains(out, `"passes"`) {
		t.Error("empty coarsening/passes slices were encoded")
	}
}
