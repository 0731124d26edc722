package mlpart

// Telemetry integration tests: the -stats-json contract is that an
// armed Report is a pure function of (input, options, seed) once the
// wall-clock fields are stripped — in particular it must be
// byte-identical across Parallelism values, because the supervisor
// merges per-start child collectors in start order after the pool
// drains.

import (
	"encoding/json"
	"testing"
)

func reportBytes(t *testing.T, run func(opt Options) (*Partition, Info, error), opt Options) []byte {
	t.Helper()
	opt.Telemetry = NewTelemetry()
	if _, _, err := run(opt); err != nil {
		t.Fatal(err)
	}
	r := opt.Telemetry.Report()
	if r == nil {
		t.Fatal("armed collector returned nil report")
	}
	r.StripTimings()
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestTelemetryReportDeterministicAcrossParallelism(t *testing.T) {
	c := detCircuit(t)
	for _, entry := range []struct {
		name string
		run  func(opt Options) (*Partition, Info, error)
	}{
		{"bipartition", func(opt Options) (*Partition, Info, error) { return Bipartition(c.H, opt) }},
		{"quadrisect", func(opt Options) (*Partition, Info, error) { return Quadrisect(c.H, opt) }},
	} {
		t.Run(entry.name, func(t *testing.T) {
			base := Options{Seed: 42, Starts: 4}
			base.Parallelism = 1
			want := reportBytes(t, entry.run, base)
			for _, par := range []int{4, 8} {
				opt := base
				opt.Parallelism = par
				got := reportBytes(t, entry.run, opt)
				if string(got) != string(want) {
					t.Errorf("parallelism %d report differs from sequential run:\n%s\nvs\n%s",
						par, got, want)
				}
			}
		})
	}
}

func TestTelemetryReportContents(t *testing.T) {
	c := detCircuit(t)
	tel := NewTelemetry()
	opt := Options{Seed: 9, Starts: 3, Telemetry: tel}
	_, info, err := Bipartition(c.H, opt)
	if err != nil {
		t.Fatal(err)
	}
	r := tel.Report()
	if r == nil {
		t.Fatal("nil report")
	}
	if r.Schema != "mlpart-stats/1" {
		t.Errorf("schema = %q", r.Schema)
	}
	if r.K != 2 || r.Seed != 9 || r.Starts != 3 {
		t.Errorf("header = k=%d seed=%d starts=%d", r.K, r.Seed, r.Starts)
	}
	if r.BestStart != info.BestStart || r.Cut != info.Cut || r.Levels != info.Levels {
		t.Errorf("report (best=%d cut=%d levels=%d) disagrees with Info (best=%d cut=%d levels=%d)",
			r.BestStart, r.Cut, r.Levels, info.BestStart, info.Cut, info.Levels)
	}
	if len(r.PerStart) != 3 {
		t.Fatalf("per_start has %d entries, want 3", len(r.PerStart))
	}
	for i, s := range r.PerStart {
		if s.Start != i {
			t.Errorf("per_start[%d].Start = %d (merge out of start order)", i, s.Start)
		}
		if s.Outcome != info.StartReports[i].Outcome.String() {
			t.Errorf("start %d outcome %q disagrees with Info %q", i, s.Outcome, info.StartReports[i].Outcome)
		}
		if len(s.Coarsening) == 0 {
			t.Errorf("start %d recorded no coarsening levels", i)
		}
		if len(s.Passes) == 0 {
			t.Errorf("start %d recorded no refinement passes", i)
		}
		for _, p := range s.Passes {
			if p.MovesKept > p.MovesTried || p.RolledBack != p.MovesTried-p.MovesKept {
				t.Errorf("start %d inconsistent pass %+v", i, p)
			}
		}
		if s.Timings.TotalNS <= 0 {
			t.Errorf("start %d has no total wall-clock time", i)
		}
	}
	// The best start's coarsening depth must agree with Info.Levels.
	if got := len(r.PerStart[r.BestStart].Coarsening); got != info.Levels {
		t.Errorf("best start has %d levels, Info reports %d", got, info.Levels)
	}
}

func TestTelemetryDisabledIsDefault(t *testing.T) {
	c := detCircuit(t)
	var tel *Telemetry
	if tel.Report() != nil {
		t.Fatal("nil collector must yield a nil report")
	}
	// A run without a collector must behave identically to one with:
	// same partition, same info.
	p1, i1, err := Bipartition(c.H, Options{Seed: 5, Starts: 2})
	if err != nil {
		t.Fatal(err)
	}
	p2, i2, err := Bipartition(c.H, Options{Seed: 5, Starts: 2, Telemetry: NewTelemetry()})
	if err != nil {
		t.Fatal(err)
	}
	samePartition(t, "telemetry on/off", p1, p2)
	if i1.Cut != i2.Cut || i1.Levels != i2.Levels || i1.BestStart != i2.BestStart {
		t.Errorf("info diverges with telemetry armed: %+v vs %+v", i1, i2)
	}
}
