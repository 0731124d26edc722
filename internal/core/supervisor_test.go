package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"mlpart/internal/faultinject"
	"mlpart/internal/telemetry"
)

func TestDeriveSeedIdentityAtOrigin(t *testing.T) {
	// Start 0 must return the base seed unchanged so a single-start
	// run stays bit-identical to the pre-supervisor code.
	for _, base := range []int64{0, 1, -7, 1997, 1 << 40} {
		if got := DeriveSeed(base, 0); got != base {
			t.Fatalf("DeriveSeed(%d,0) = %d", base, got)
		}
	}
	// Distinct starts must get distinct streams.
	seen := map[int64]int{}
	for s := 0; s < 64; s++ {
		d := DeriveSeed(1997, s)
		if prev, dup := seen[d]; dup {
			t.Fatalf("seed collision between starts %d and %d", prev, s)
		}
		seen[d] = s
	}
}

// TestDeriveSeedPinned pins the per-start seeds bit for bit: every
// multi-start partition depends on them.
func TestDeriveSeedPinned(t *testing.T) {
	for _, c := range []struct {
		base  int64
		start int
		want  int64
	}{
		{1997, 1, 8751083212518063063},
		{1997, 2, 5443941246332139689},
		{1997, 7, -6914696295850095415},
		{-5, 3, 5922940251472623172},
	} {
		if got := DeriveSeed(c.base, c.start); got != c.want {
			t.Errorf("DeriveSeed(%d,%d) = %d, want %d", c.base, c.start, got, c.want)
		}
	}
}

func TestRunStartsReductionDeterministic(t *testing.T) {
	// Synthetic run: cost is a pure function of the derived seed, so
	// every Parallelism value must reduce to the same winner.
	run := func(ctx context.Context, seed int64, inj *faultinject.Injector, _ *telemetry.Collector, _ *Scratch) Attempt[int64] {
		cost := int(uint64(seed) % 1000)
		return Attempt[int64]{Sol: seed, Cost: cost, HasSol: true}
	}
	type outcome struct {
		sol  int64
		best int
	}
	var ref outcome
	for i, par := range []int{1, 2, 4, 16} {
		sol, best, reports, err := RunStarts(context.Background(),
			SuperOptions{Starts: 16, Parallelism: par, Seed: 42}, run)
		if err != nil {
			t.Fatal(err)
		}
		if len(reports) != 16 {
			t.Fatalf("par=%d: %d reports", par, len(reports))
		}
		got := outcome{sol, best}
		if i == 0 {
			ref = got
			continue
		}
		if got != ref {
			t.Fatalf("par=%d: %+v != %+v", par, got, ref)
		}
	}
}

func TestRunStartsTieBreaksToLowestStart(t *testing.T) {
	run := func(ctx context.Context, seed int64, inj *faultinject.Injector, _ *telemetry.Collector, _ *Scratch) Attempt[string] {
		return Attempt[string]{Sol: "x", Cost: 7, HasSol: true}
	}
	_, best, _, err := RunStarts(context.Background(),
		SuperOptions{Starts: 5, Parallelism: 4, Seed: 1}, run)
	if err != nil || best != 0 {
		t.Fatalf("best = %d, err = %v; want 0, nil", best, err)
	}
}

// TestRunStartsKeepsOneSolution pins the streaming reduction: while
// the last of 64 starts runs, the run holds the one kept solution, not
// one 1 MiB solution per finished start.
func TestRunStartsKeepsOneSolution(t *testing.T) {
	const starts, size = 64, 1 << 20
	var calls int
	var live uint64
	run := func(ctx context.Context, seed int64, inj *faultinject.Injector, _ *telemetry.Collector, _ *Scratch) Attempt[[]byte] {
		s := calls // Parallelism 1 runs the starts in order
		calls++
		sol := make([]byte, size)
		sol[0] = byte(s)
		if s == starts-1 {
			runtime.GC()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			live = ms.HeapAlloc
		}
		// Every start beats the one before it, so each replaces the
		// kept solution.
		return Attempt[[]byte]{Sol: sol, Cost: starts - s, HasSol: true}
	}
	sol, best, _, err := RunStarts(context.Background(),
		SuperOptions{Starts: starts, Parallelism: 1, Seed: 1}, run)
	if err != nil || best != starts-1 || len(sol) != size || sol[0] != starts-1 {
		t.Fatalf("best %d, err %v; want start %d and its solution", best, err, starts-1)
	}
	if live >= 16<<20 {
		t.Fatalf("%.1f MiB live in the last start, want < 16 MiB (one kept solution)", float64(live)/(1<<20))
	}
}

// TestRunStartsBundlePerWorker pins which workspace bundle each start
// runs on: a single worker runs every start on the caller's bundle
// when there is one and on one pooled bundle otherwise, and parallel
// workers each hold a pooled bundle of their own — never the caller's,
// and never one another worker is using.
func TestRunStartsBundlePerWorker(t *testing.T) {
	own := NewScratch()
	for _, c := range []struct {
		name    string
		par     int
		scratch *Scratch
		wantOwn bool
	}{
		{"one worker, caller bundle", 1, own, true},
		{"one worker, no caller bundle", 1, nil, false},
		{"two workers, caller bundle", 2, own, false},
		{"four workers", 4, nil, false},
	} {
		var (
			mu    sync.Mutex
			inUse = map[*Scratch]bool{}
			seen  = map[*Scratch]bool{}
			bad   []string
		)
		run := func(ctx context.Context, seed int64, inj *faultinject.Injector, _ *telemetry.Collector, sc *Scratch) Attempt[int] {
			mu.Lock()
			if sc == nil || inUse[sc] {
				bad = append(bad, fmt.Sprintf("bundle %p nil or already in use", sc))
			}
			inUse[sc], seen[sc] = true, true
			mu.Unlock()
			runtime.Gosched()
			mu.Lock()
			inUse[sc] = false
			mu.Unlock()
			return Attempt[int]{Sol: 1, Cost: 1, HasSol: true}
		}
		if _, _, _, err := RunStarts(context.Background(), SuperOptions{Starts: 16, Parallelism: c.par, Scratch: c.scratch}, run); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(bad) > 0 {
			t.Errorf("%s: %s", c.name, bad[0])
		}
		if seen[own] != c.wantOwn {
			t.Errorf("%s: ran on the caller's bundle = %v, want %v", c.name, seen[own], c.wantOwn)
		}
		if len(seen) > c.par {
			t.Errorf("%s: starts ran on %d bundles, want at most one per worker (%d)", c.name, len(seen), c.par)
		}
	}
}

func TestRunStartsRecoveredPanicIsolated(t *testing.T) {
	// A panic escaping one start must not kill the others or surface
	// as the top-level error when a clean start exists, and the
	// failed start is not run again.
	var calls atomic.Int32
	run := func(ctx context.Context, seed int64, inj *faultinject.Injector, _ *telemetry.Collector, _ *Scratch) Attempt[int] {
		calls.Add(1)
		if seed == DeriveSeed(9, 1) {
			panic("boom")
		}
		return Attempt[int]{Sol: 1, Cost: 3, HasSol: true}
	}
	_, best, reports, err := RunStarts(context.Background(),
		SuperOptions{Starts: 3, Parallelism: 3, Seed: 9}, run)
	if err != nil {
		t.Fatalf("clean starts exist, got error %v", err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("run called %d times, want one per start", got)
	}
	if best != 0 {
		t.Fatalf("best = %d", best)
	}
	if reports[1].Outcome != OutcomeFailed {
		t.Fatalf("panicking start outcome %v, want %v", reports[1].Outcome, OutcomeFailed)
	}
	var perr *PanicError
	if !errors.As(reports[1].Err, &perr) || perr.Stage != "start" {
		t.Fatalf("want *PanicError{Stage:start}, got %v", reports[1].Err)
	}
	for _, s := range []int{0, 2} {
		if reports[s].Outcome != OutcomeOK {
			t.Fatalf("start %d outcome %v", s, reports[s].Outcome)
		}
	}
}

func TestRunStartsRecoveredSolutionKept(t *testing.T) {
	// A recovered panic WITH a feasible solution is kept (outcome
	// recovered); with no clean start anywhere, the top-level error is
	// the best start's recovered panic.
	perr := &PanicError{Stage: "refine", Level: 2, Value: "inv"}
	run := func(ctx context.Context, seed int64, inj *faultinject.Injector, _ *telemetry.Collector, _ *Scratch) Attempt[int] {
		return Attempt[int]{Sol: 5, Cost: 11, HasSol: true, Err: perr}
	}
	sol, best, reports, err := RunStarts(context.Background(),
		SuperOptions{Starts: 2, Parallelism: 1, Seed: 3}, run)
	if sol != 5 || best != 0 {
		t.Fatalf("sol %d best %d", sol, best)
	}
	if !errors.Is(err, perr) {
		t.Fatalf("top-level err %v, want the recovered panic", err)
	}
	for _, r := range reports {
		if r.Outcome != OutcomeRecovered {
			t.Fatalf("report %+v", r)
		}
	}
}

// TestRunStartsNoRetryAfterCancel pins that a start fails once and
// for all: a start whose run fails after the caller cancels is run
// exactly once and reported cancelled, and the later starts are
// skipped without running.
func TestRunStartsNoRetryAfterCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var calls atomic.Int32
	run := func(rctx context.Context, seed int64, inj *faultinject.Injector, _ *telemetry.Collector, _ *Scratch) Attempt[int] {
		calls.Add(1)
		cancel() // the caller goes away mid-attempt
		return Attempt[int]{Err: errors.New("transient")}
	}
	_, best, reports, err := RunStarts(ctx,
		SuperOptions{Starts: 3, Parallelism: 1}, run)
	if got := calls.Load(); got != 1 {
		t.Fatalf("run called %d times, want 1 (no later starts)", got)
	}
	if best != -1 || err == nil {
		t.Fatalf("best %d err %v", best, err)
	}
	if reports[0].Outcome != OutcomeCancelled {
		t.Fatalf("start 0 outcome %v", reports[0].Outcome)
	}
	for _, s := range []int{1, 2} {
		if reports[s].Outcome != OutcomeCancelled || reports[s].Err != nil {
			t.Fatalf("start %d report %+v", s, reports[s])
		}
	}
}

func TestRunStartsAllFailedSurfacesFirstError(t *testing.T) {
	sentinel := errors.New("first failure")
	var calls atomic.Int32
	run := func(ctx context.Context, seed int64, inj *faultinject.Injector, _ *telemetry.Collector, _ *Scratch) Attempt[int] {
		calls.Add(1)
		if seed == DeriveSeed(5, 0) {
			return Attempt[int]{Err: sentinel}
		}
		return Attempt[int]{Err: errors.New("other failure")}
	}
	_, best, _, err := RunStarts(context.Background(),
		SuperOptions{Starts: 3, Parallelism: 1, Seed: 5}, run)
	if best != -1 || calls.Load() != 3 {
		t.Fatalf("best = %d after %d runs; want -1 after one run per start", best, calls.Load())
	}
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want first failure in start order", err)
	}
}
