package mlpart

// Tests for the fault-isolated parallel multi-start supervisor: the
// parallelism-independence determinism contract, the per-start
// outcome taxonomy, and the regression for the old sequential loop
// that discarded remaining starts after one recovered panic.

import (
	"context"
	"testing"

	"mlpart/internal/faultinject"
	"mlpart/internal/telemetry"
)

// TestParallelMultiStartDeterminism pins the supervisor's central
// guarantee: the result is bit-identical run-to-run and across every
// Parallelism value, for both entry points.
func TestParallelMultiStartDeterminism(t *testing.T) {
	c, err := GenerateCircuit(CircuitSpec{Name: "pdet", Cells: 400, Nets: 450, Pins: 1450, Seed: 55})
	if err != nil {
		t.Fatal(err)
	}
	h := c.H
	for _, k := range []int{2, 4} {
		run := func(par int) (*Partition, Info) {
			opt := Options{Seed: 65, Starts: 8, Parallelism: par, Audit: true}
			var p *Partition
			var info Info
			var rerr error
			if k == 2 {
				p, info, rerr = Bipartition(h, opt)
			} else {
				p, info, rerr = Quadrisect(h, opt)
			}
			if rerr != nil {
				t.Fatalf("k=%d parallel=%d: %v", k, par, rerr)
			}
			if p == nil {
				t.Fatalf("k=%d parallel=%d: nil partition", k, par)
			}
			return p, info
		}
		ref, refInfo := run(1)
		for _, par := range []int{4, 8} {
			p, info := run(par)
			if info.Cut != refInfo.Cut || info.SumDegrees != refInfo.SumDegrees ||
				info.BestStart != refInfo.BestStart || info.Levels != refInfo.Levels {
				t.Fatalf("k=%d parallel=%d: info {cut %d sod %d best %d levels %d} != sequential {cut %d sod %d best %d levels %d}",
					k, par, info.Cut, info.SumDegrees, info.BestStart, info.Levels,
					refInfo.Cut, refInfo.SumDegrees, refInfo.BestStart, refInfo.Levels)
			}
			for v := range ref.Part {
				if p.Part[v] != ref.Part[v] {
					t.Fatalf("k=%d parallel=%d: partition diverges at cell %d", k, par, v)
				}
			}
			for s := range refInfo.StartReports {
				if info.StartReports[s].Cost != refInfo.StartReports[s].Cost ||
					info.StartReports[s].Outcome != refInfo.StartReports[s].Outcome {
					t.Fatalf("k=%d parallel=%d: start %d report diverges", k, par, s)
				}
			}
		}
	}
}

// TestRecoveredStartKeepsRemaining is the regression for the old
// multi-start loop, which broke out after one recovered panic and
// discarded every remaining start. A panic confined to start 0 must
// leave the other starts running cleanly and the overall error nil.
func TestRecoveredStartKeepsRemaining(t *testing.T) {
	c, err := GenerateCircuit(CircuitSpec{Name: "rec0", Cells: 300, Nets: 340, Pins: 1100, Seed: 56})
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{
		Seed:   66,
		Starts: 3,
		Audit:  true,
		Inject: &FaultPlan{
			Entries: []FaultEntry{faultinject.OnStart(faultinject.SiteFMPass, FaultPanic, 1, 0)},
		},
	}
	p, info, err := Bipartition(c.H, opt)
	if err != nil {
		t.Fatalf("clean starts remained, want nil error, got %v", err)
	}
	if p == nil {
		t.Fatal("nil partition")
	}
	if got := info.StartReports[0].Outcome; got != StartRecovered {
		t.Fatalf("start 0 outcome %v, want %v", got, StartRecovered)
	}
	for s := 1; s < opt.Starts; s++ {
		if got := info.StartReports[s].Outcome; got != StartOK {
			t.Fatalf("start %d outcome %v, want %v (remaining starts must run)", s, got, StartOK)
		}
	}
	if info.StartReports[0].Err == nil {
		t.Error("recovered start must carry its panic error in the report")
	}
}

// TestOuterCancelSkipsLaterStarts pins that a done caller context
// marks unstarted runs StartCancelled while start 0 still produces a
// feasible solution, and Info.Interrupted reflects the caller's
// cancellation. The skipped starts never run, and the telemetry report
// still holds one entry per start, in start order.
func TestOuterCancelSkipsLaterStarts(t *testing.T) {
	c, err := GenerateCircuit(CircuitSpec{Name: "oc", Cells: 300, Nets: 340, Pins: 1100, Seed: 58})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tel := NewTelemetry()
	opt := Options{Seed: 68, Starts: 4, Parallelism: 1, Audit: true, Telemetry: tel}
	p, info, err := BipartitionCtx(ctx, c.H, opt)
	if err != nil {
		t.Fatalf("cancellation is not an error: %v", err)
	}
	if p == nil {
		t.Fatal("start 0 must still produce a feasible solution under a done ctx")
	}
	if !info.Interrupted {
		t.Error("caller cancellation must set Info.Interrupted")
	}
	if got := info.StartReports[0].Outcome; got == StartCancelled {
		t.Errorf("start 0 outcome %v; it must run even under a done ctx", got)
	}
	for s := 1; s < opt.Starts; s++ {
		if got := info.StartReports[s].Outcome; got != StartCancelled {
			t.Errorf("start %d outcome %v, want %v", s, got, StartCancelled)
		}
	}
	r := tel.Report()
	if r.Starts != opt.Starts || len(r.PerStart) != opt.Starts {
		t.Fatalf("report has %d starts and %d per_start entries, want %d", r.Starts, len(r.PerStart), opt.Starts)
	}
	for s, st := range r.PerStart {
		if st.Start != s {
			t.Errorf("per_start[%d].Start = %d, want start order", s, st.Start)
		}
		if s == 0 {
			continue
		}
		if st.Outcome != "cancelled" || st.Cost != -1 || st.Coarsening != nil || st.CoarsenStop != "" ||
			st.Passes != nil || st.Rebalances != 0 || st.Timings != (telemetry.StageTimings{}) {
			t.Errorf("skipped start %d: %+v, want a cancelled skeleton with cost -1 and nothing run", s, st)
		}
	}
}

// TestFaultSpecRoundTrip pins the CLI spec syntax end to end through
// the public wrapper.
func TestFaultSpecRoundTrip(t *testing.T) {
	plan, err := ParseFaultSpec([]string{"fm.pass:panic:2", "core.project:delay:p0.25:1"}, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Entries) != 2 || plan.Seed != 9 {
		t.Fatalf("bad plan: %+v", plan)
	}
	e := plan.Entries[0]
	if e.Site != faultinject.SiteFMPass || e.Kind != FaultPanic || e.OnHit != 2 || e.Start != FaultAnyStart {
		t.Fatalf("bad entry 0: %+v", e)
	}
	e = plan.Entries[1]
	if e.Site != faultinject.SiteCoreProject || e.Kind != FaultDelay || e.Prob != 0.25 || e.Start != 1 {
		t.Fatalf("bad entry 1: %+v", e)
	}
	if _, err := ParseFaultSpec([]string{"made.up:panic:1"}, 0); err == nil {
		t.Fatal("unknown site must be rejected")
	}
	if p, err := ParseFaultSpec(nil, 0); p != nil || err != nil {
		t.Fatalf("empty specs: got %v, %v", p, err)
	}
}
