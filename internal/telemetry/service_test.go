package telemetry

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
)

func TestServiceCollectorLifecycle(t *testing.T) {
	var s ServiceCollector

	// Three accepted jobs: one completes, one fails, one is drained
	// straight out of the queue.
	s.Accept()
	s.Accept()
	s.Accept()
	s.CacheMiss()
	s.StartJob()
	s.FinishJob("completed", false)
	s.CacheMiss()
	s.StartJob()
	s.FinishJob("failed", false)
	s.FinishJob("drained", true)
	s.RejectQueueFull()
	s.RejectDraining()
	s.RejectInvalid()
	s.CacheHit()

	// One of the accepted jobs was a crash recovery; the journal also
	// replayed a closed job, truncated a torn tail, lost one append,
	// and deduplicated one idempotent retry.
	s.RecoverJob()
	s.ReplayTerminal()
	s.TornTail()
	s.JournalAppendError()
	s.IdempotentReplay()

	r := s.Snapshot(8, true, 123)
	if r.Schema != ServiceSchemaVersion {
		t.Errorf("schema %q", r.Schema)
	}
	want := ServiceReport{
		Schema: ServiceSchemaVersion, Accepted: 3,
		RejectedQueueFull: 1, RejectedDraining: 1, Invalid: 1,
		Completed: 1, Failed: 1, Drained: 1,
		Recovered: 1, ReplayedTerminal: 1, TornTailTruncated: 1,
		JournalAppendErrors: 1, IdempotentReplays: 1,
		CacheHits: 1, CacheMisses: 2,
		QueueCap: 8, Draining: true, UptimeNS: 123,
	}
	if r != want {
		t.Errorf("snapshot = %+v, want %+v", r, want)
	}
	if sum := r.Completed + r.Failed + r.Cancelled + r.DeadlineExceeded + r.Drained + r.Queued + r.Running; sum != r.Accepted {
		t.Errorf("terminal+gauge sum %d != accepted %d", sum, r.Accepted)
	}
}

func TestServiceCollectorConcurrent(t *testing.T) {
	var s ServiceCollector
	const workers, per = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				s.Accept()
				s.StartJob()
				s.FinishJob("completed", false)
			}
		}()
	}
	wg.Wait()
	r := s.Snapshot(1, false, 1)
	if r.Accepted != workers*per || r.Completed != workers*per {
		t.Errorf("accepted %d completed %d, want %d", r.Accepted, r.Completed, workers*per)
	}
	if r.Queued != 0 || r.Running != 0 {
		t.Errorf("gauges queued %d running %d, want 0", r.Queued, r.Running)
	}
}

func TestServiceReportWriteJSON(t *testing.T) {
	var s ServiceCollector
	s.Accept()
	s.StartJob()
	s.FinishJob("completed", false)
	r := s.Snapshot(4, false, 99)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Bytes()[buf.Len()-1] != '\n' {
		t.Error("missing trailing newline")
	}
	var back ServiceReport
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back != r {
		t.Errorf("round trip: %+v != %+v", back, r)
	}
}

// TestBenchStagesFeedSnapshot: a report's per-start timings sum into
// one stage profile, and AddStage accumulates those profiles per k
// into the mlpart-bench/1 view.
func TestBenchStagesFeedSnapshot(t *testing.T) {
	r := &Report{PerStart: []StartStats{
		{Timings: StageTimings{CoarsenNS: 1, RefineNS: 2, ProjectNS: 3, RebalanceNS: 4, TotalNS: 10, RefineParRegions: 7}},
		{Timings: StageTimings{CoarsenNS: 10, RefineNS: 20, ProjectNS: 30, RebalanceNS: 40, TotalNS: 100}},
	}}
	want := BenchStageNS{CoarsenNS: 11, RefineNS: 22, ProjectNS: 33, RebalanceNS: 44, TotalNS: 110}
	if got := r.BenchStages(); got != want {
		t.Fatalf("BenchStages = %+v, want %+v", got, want)
	}
	var s ServiceCollector
	s.AddStage(4, 9, 3, r.BenchStages())
	s.AddStage(4, 8, 2, r.BenchStages())
	b := s.BenchSnapshot("2026-01-01")
	if len(b.Entries) != 1 {
		t.Fatalf("%d bench entries, want 1", len(b.Entries))
	}
	e := b.Entries[0]
	want = BenchStageNS{CoarsenNS: 22, RefineNS: 44, ProjectNS: 66, RebalanceNS: 88, TotalNS: 220}
	if e.Algorithm != "quadrisect" || e.Cut != 8 || e.Levels != 2 || e.StageNS != want {
		t.Errorf("bench entry %+v, want quadrisect, cut 8, levels 2, stages %+v", e, want)
	}
}
