package mlpart

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"mlpart/internal/faultinject"
)

// freshPartition is the identity reference for workspace reuse: the
// call on a new bundle of its own, a new Session, with its starts run
// one at a time so that they all run on it. Results do not depend on
// Parallelism.
func freshPartition(ctx context.Context, h *Hypergraph, k int, opt Options) (*Partition, Info, error) {
	opt.Parallelism = 1
	return NewSession().PartitionCtx(ctx, h, k, opt)
}

// callResult is everything a caller reads off one call: the
// partition, the Info (as text: a recovered panic's error carries the
// stack it was raised on, which differs between call paths) and the
// timing-stripped telemetry report.
type callResult struct {
	p      *Partition
	info   string
	report string
	err    error
}

// runCall runs fn on the job with a fresh telemetry collector.
func runCall(t *testing.T, fn func(context.Context, *Hypergraph, int, Options) (*Partition, Info, error), h *Hypergraph, k int, opt Options) callResult {
	t.Helper()
	opt.Telemetry = NewTelemetry()
	p, info, err := fn(context.Background(), h, k, opt)
	r := opt.Telemetry.Report()
	r.StripTimings()
	report, jerr := json.Marshal(r)
	if jerr != nil {
		t.Fatal(jerr)
	}
	return callResult{p: p, info: fmt.Sprintf("%+v", info), report: string(report), err: err}
}

// sameResult reports how got differs from want, or "" when it does
// not.
func sameResult(got, want callResult) string {
	switch {
	case !reflect.DeepEqual(got.p, want.p):
		return "partition differs"
	case got.info != want.info:
		return fmt.Sprintf("Info %s, want %s", got.info, want.info)
	case got.report != want.report:
		return "timing-stripped telemetry reports differ"
	}
	return ""
}

// TestSessionMatchesOneShot runs a mixed job sequence on one Session —
// large and small instances, both entry points, both engines — so
// each job inherits workspaces reserved and dirtied by the jobs before
// it, shrinking and regrowing. One job panics mid-refinement,
// abandoning the workspaces mid-pass; another runs its starts in
// parallel, on pooled bundles rather than the Session's. Every
// partition, Info and timing-stripped telemetry report of the Session
// and of the package-level call must equal, byte for byte, those of
// the call on a fresh bundle.
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
		// fault is whether the job reports an error.
		fault bool
	}{
		{"large quadrisect", large, 4, Options{Engine: EngineFM, Seed: 1, Starts: 2, Parallelism: 1}, false},
		{"small bipartition", small, 2, Options{Engine: EngineFM, Seed: 2}, false},
		{"large CLIP bipartition", large, 2, Options{Engine: EngineCLIP, Seed: 3, Starts: 2, Parallelism: 1}, false},
		{"large bipartition panicking in fm.pass", large, 2, Options{Engine: EngineFM, Seed: 5, Inject: panicking}, true},
		{"large bipartition after the panic", large, 2, Options{Engine: EngineFM, Seed: 6}, false},
		{"small quadrisect", small, 4, Options{Engine: EngineCLIP, Seed: 4}, false},
		{"large parallel multi-start", large, 2, Options{Engine: EngineFM, Seed: 7, Starts: 2, Parallelism: 0}, false},
	}
	for _, job := range jobs {
		want := runCall(t, freshPartition, job.h, job.k, job.opt)
		for _, call := range []struct {
			name string
			fn   func(context.Context, *Hypergraph, int, Options) (*Partition, Info, error)
		}{{"session", s.PartitionCtx}, {"one-shot", PartitionCtx}} {
			got := runCall(t, call.fn, job.h, job.k, job.opt)
			if (got.err != nil) != job.fault {
				t.Fatalf("%s, %s call: error %v, want an error: %v", job.name, call.name, got.err, job.fault)
			}
			if d := sameResult(got, want); d != "" {
				t.Errorf("%s, %s call: %s from the fresh bundle's", job.name, call.name, d)
			}
		}
	}
}

// TestPooledOneShotMatchesFresh runs one-shot calls whose instances
// shrink and then regrow through the process-wide pool, across k = 2
// and 4, Starts 1 and 4 and Parallelism 1 and 2, so each call's
// workers borrow bundles that earlier calls left sized and dirtied by
// other instances. Midway one call's start panics in fm.pass and is
// recovered, and the calls after it reuse that start's bundle. Every
// partition, Info and timing-stripped telemetry report must equal the
// fresh bundle's byte for byte.
func TestPooledOneShotMatchesFresh(t *testing.T) {
	var sizes []*Hypergraph
	for i, cells := range []int{2000, 300, 2000} {
		c, err := GenerateCircuit(CircuitSpec{Name: "pooled", Cells: cells, Nets: cells + cells/10, Seed: int64(30 + i)})
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, c.H)
	}
	type job struct {
		name string
		h    *Hypergraph
		k    int
		opt  Options
	}
	var jobs []job
	for i, h := range sizes {
		for _, k := range []int{2, 4} {
			for _, starts := range []int{1, 4} {
				for _, par := range []int{1, 2} {
					jobs = append(jobs, job{
						name: fmt.Sprintf("%d cells, k = %d, Starts %d, Parallelism %d", h.NumCells(), k, starts, par),
						h:    h, k: k,
						opt: Options{Seed: int64(len(jobs) + 1), Starts: starts, Parallelism: par},
					})
				}
			}
		}
		if i == 0 {
			// After the largest instance, while its bundles are in the
			// pool: one start panics mid-refinement and is recovered.
			panicking := &FaultPlan{Seed: 1, Entries: []FaultEntry{faultinject.OnStart(faultinject.SiteFMPass, faultinject.KindPanic, 2, 1)}}
			jobs = append(jobs, job{name: "start 1 panicking in fm.pass", h: h, k: 2, opt: Options{Seed: 99, Starts: 4, Parallelism: 2, Inject: panicking}})
		}
	}
	recovered := false
	for _, j := range jobs {
		got := runCall(t, PartitionCtx, j.h, j.k, j.opt)
		if got.err != nil {
			t.Fatalf("%s: %v", j.name, got.err)
		}
		if d := sameResult(got, runCall(t, freshPartition, j.h, j.k, j.opt)); d != "" {
			t.Errorf("%s: %s from the fresh bundle's", j.name, d)
		}
		recovered = recovered || strings.Contains(got.info, "recovered")
	}
	if !recovered {
		t.Fatal("no start recovered from the injected panic")
	}
}

// TestSessionDirtyStoreMatchesOneShot runs jobs of 8k, 1k, 3k and 8k
// cells on one Session, alternating bipartition and quadrisection, so
// every job rebuilds its hierarchy in slots an earlier job left holding
// a different one. Each partition and Info must equal those of the
// call on a fresh bundle.
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
		pF, infoF, err := freshPartition(context.Background(), c.H, job.k, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(pS, pF) {
			t.Errorf("job %d (%d cells): session partition differs from the fresh bundle's", i, job.cells)
		}
		if a, b := fmt.Sprintf("%+v", infoS), fmt.Sprintf("%+v", infoF); a != b {
			t.Errorf("job %d (%d cells): session Info %s, fresh bundle %s", i, job.cells, a, b)
		}
	}
}
