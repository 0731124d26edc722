package mlpart

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"mlpart/internal/faultinject"
)

// TestSessionMatchesOneShot runs a mixed job sequence on one Session —
// large and small instances, both entry points, both engines — so
// each job inherits workspaces reserved
// and dirtied by the jobs before it, shrinking and regrowing. One job
// panics mid-refinement, abandoning the workspaces mid-pass; another
// runs its starts in parallel, which the Session must leave to fresh
// workspaces. Every partition, Info and timing-stripped telemetry
// report must equal the package-level call's byte for byte.
func TestSessionMatchesOneShot(t *testing.T) {
	circuit := func(name string, cells int, seed int64) *Hypergraph {
		c, err := GenerateCircuit(CircuitSpec{Name: name, Cells: cells, Nets: cells + cells/10, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return c.H
	}
	large, small := circuit("session-large", 2500, 21), circuit("session-small", 400, 22)
	s := NewSession()
	panicking := &FaultPlan{Seed: 1, Entries: []FaultEntry{faultinject.On(faultinject.SiteFMPass, faultinject.KindPanic, 3)}}
	jobs := []struct {
		name string
		h    *Hypergraph
		k    int
		opt  Options
		// reuse is whether the Session runs the job on its own
		// workspaces; fault is whether the job reports an error.
		reuse, fault bool
	}{
		{"large quadrisect", large, 4, Options{Engine: EngineFM, Seed: 1, Starts: 2, Parallelism: 1}, true, false},
		{"small bipartition", small, 2, Options{Engine: EngineFM, Seed: 2}, true, false},
		{"large CLIP bipartition", large, 2, Options{Engine: EngineCLIP, Seed: 3, Starts: 2, Parallelism: 1}, true, false},
		{"large bipartition panicking in fm.pass", large, 2, Options{Engine: EngineFM, Seed: 5, Inject: panicking}, true, true},
		{"large bipartition after the panic", large, 2, Options{Engine: EngineFM, Seed: 6}, true, false},
		{"small quadrisect", small, 4, Options{Engine: EngineCLIP, Seed: 4}, true, false},
		{"large parallel multi-start", large, 2, Options{Engine: EngineFM, Seed: 7, Starts: 2, Parallelism: 0}, false, false},
	}
	for _, job := range jobs {
		if got := s.scratchFor(job.opt) != nil; got != job.reuse {
			t.Errorf("%s: Session reuses its workspaces = %v, want %v", job.name, got, job.reuse)
		}
		run := func(fn func(context.Context, *Hypergraph, int, Options) (*Partition, Info, error)) (*Partition, Info, []byte) {
			opt := job.opt
			opt.Telemetry = NewTelemetry()
			p, info, err := fn(context.Background(), job.h, job.k, opt)
			if (err != nil) != job.fault {
				t.Fatalf("%s: error %v, want an error: %v", job.name, err, job.fault)
			}
			r := opt.Telemetry.Report()
			r.StripTimings()
			report, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			return p, info, report
		}
		pS, infoS, repS := run(s.PartitionCtx)
		pO, infoO, repO := run(PartitionCtx)
		if !reflect.DeepEqual(pS, pO) {
			t.Errorf("%s: session partition differs from the one-shot call", job.name)
		}
		// Compared as text: a recovered panic's error carries the
		// stack it was raised on, which differs between call paths.
		if a, b := fmt.Sprintf("%+v", infoS), fmt.Sprintf("%+v", infoO); a != b {
			t.Errorf("%s: session Info %s, one-shot %s", job.name, a, b)
		}
		if string(repS) != string(repO) {
			t.Errorf("%s: timing-stripped telemetry reports differ", job.name)
		}
	}
}

// TestSessionDirtyStoreMatchesOneShot runs jobs of 8k, 1k, 3k and 8k
// cells on one Session, alternating bipartition and quadrisection, so
// every job rebuilds its hierarchy in slots an earlier job left holding
// a different one. Each partition and Info must equal the one-shot
// call's.
func TestSessionDirtyStoreMatchesOneShot(t *testing.T) {
	s := NewSession()
	jobs := []struct{ cells, k int }{{8000, 2}, {1000, 4}, {3000, 2}, {8000, 4}}
	for i, job := range jobs {
		c, err := GenerateCircuit(CircuitSpec{Name: "dirty-store", Cells: job.cells, Nets: job.cells + job.cells/16, Seed: int64(40 + i)})
		if err != nil {
			t.Fatal(err)
		}
		opt := Options{Seed: int64(i + 1)}
		pS, infoS, err := s.PartitionCtx(context.Background(), c.H, job.k, opt)
		if err != nil {
			t.Fatal(err)
		}
		pO, infoO, err := PartitionCtx(context.Background(), c.H, job.k, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(pS, pO) {
			t.Errorf("job %d (%d cells): session partition differs from the one-shot call", i, job.cells)
		}
		if a, b := fmt.Sprintf("%+v", infoS), fmt.Sprintf("%+v", infoO); a != b {
			t.Errorf("job %d (%d cells): session Info %s, one-shot %s", i, job.cells, a, b)
		}
	}
}
