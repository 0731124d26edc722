package mlpart

// Tests for the robustness layer: cooperative cancellation at every
// pipeline stage and panic recovery at the public API boundary. The
// contract under test: a cancelled run returns the best feasible
// partition found so far with Info.Interrupted set (not an error), and
// an internal invariant panic surfaces as a typed *InternalError.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"mlpart/internal/core"
	"mlpart/internal/faultinject"
	"mlpart/internal/kway"
)

// stepContext is a context.Context that reports cancellation after a
// fixed number of Err() polls. Because the pipeline is deterministic
// for a fixed seed, poll k of a budgeted run sees exactly the state
// poll k of an unbudgeted run saw — so sweeping the budget cancels the
// run at every stage it passes through (coarsening, coarsest
// partitioning, refinement at each level). Cancellation is monotonic
// and the counter is mutex-guarded so the hook is race-detector clean.
type stepContext struct {
	mu     sync.Mutex
	budget int // polls that return nil before cancellation
	calls  int
	done   bool
}

func (c *stepContext) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *stepContext) Done() <-chan struct{}       { return nil }
func (c *stepContext) Value(key any) any           { return nil }
func (c *stepContext) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.calls++
	if c.done || c.calls > c.budget {
		c.done = true
		return context.Canceled
	}
	return nil
}

func (c *stepContext) polls() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls
}

// TestCancellationAtEveryStage sweeps the cancellation point across
// the whole pipeline for both entry points. Whatever the stage —
// during coarsening (small budgets), coarsest partitioning, or any
// refinement level (larger budgets) — the result must be a valid,
// balance-respecting partition with Interrupted set and no error.
func TestCancellationAtEveryStage(t *testing.T) {
	c, err := GenerateCircuit(CircuitSpec{Name: "cancel", Cells: 600, Nets: 700, Pins: 2300, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	h := c.H
	variants := []struct {
		name string
		k    int
	}{
		{"bipartition", 2},
		{"quadrisect", 4},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			run := func(ctx context.Context) (*Partition, Info, error) {
				return PartitionCtx(ctx, h, v.k, Options{Seed: 7})
			}
			bound := Balance(h, v.k, 0.1)
			// Learn the total poll count N from an unbudgeted run.
			probe := &stepContext{budget: int(^uint(0) >> 1)}
			full, info, err := run(probe)
			if err != nil {
				t.Fatal(err)
			}
			if info.Interrupted {
				t.Fatal("uncancelled run reported Interrupted")
			}
			if !full.IsBalanced(h, bound) {
				t.Fatal("uncancelled run unbalanced")
			}
			n := probe.polls()
			if n < 10 {
				t.Fatalf("only %d context polls in a full run; cancellation is barely wired in", n)
			}
			budgets := []int{0, 1, 2, 3, 5, 8, n / 4, n / 2, 3 * n / 4, n - 1}
			seen := map[int]bool{}
			for _, k := range budgets {
				if k < 0 || k >= n || seen[k] {
					continue
				}
				seen[k] = true
				sc := &stepContext{budget: k}
				p, info, err := run(sc)
				if err != nil {
					t.Errorf("budget %d: unexpected error %v", k, err)
					continue
				}
				if p == nil {
					t.Errorf("budget %d: nil partition", k)
					continue
				}
				if !info.Interrupted {
					t.Errorf("budget %d/%d: Interrupted not set", k, n)
				}
				if err := p.Validate(h.NumCells()); err != nil {
					t.Errorf("budget %d: %v", k, err)
				}
				if !p.IsBalanced(h, bound) {
					t.Errorf("budget %d: cancelled run violates the balance bound", k)
				}
			}
		})
	}
}

// TestCancelledBeforeStart: even a context that is done before the
// call must yield a feasible (projected-and-rebalanced) partition.
func TestCancelledBeforeStart(t *testing.T) {
	c, err := GenerateCircuit(CircuitSpec{Name: "pre", Cells: 300, Nets: 340, Pins: 1100, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	h := c.H
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p, info, err := BipartitionCtx(ctx, h, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !info.Interrupted {
		t.Error("Interrupted not set")
	}
	if !p.IsBalanced(h, Balance(h, 2, 0.1)) {
		t.Error("unbalanced")
	}
}

// TestVCycleCancelNeverWorse: a cancelled V-cycle returns a solution
// no worse than its input.
func TestVCycleCancelNeverWorse(t *testing.T) {
	c, err := GenerateCircuit(CircuitSpec{Name: "vc", Cells: 400, Nets: 450, Pins: 1450, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	h := c.H
	p, info, err := Bipartition(h, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	q, cut, err := VCycleCtx(ctx, h, p, 3, MLConfig{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if cut > info.Cut {
		t.Errorf("cancelled V-cycle cut %d worse than input %d", cut, info.Cut)
	}
	if err := q.Validate(h.NumCells()); err != nil {
		t.Error(err)
	}
}

// TestVCyclePanicStaysInLibrary: a panic inside a V-cycle is recovered
// by the level driver. VCycleCtx returns the best solution seen, which
// is never worse than its input, together with the *InternalError.
func TestVCyclePanicStaysInLibrary(t *testing.T) {
	c, err := GenerateCircuit(CircuitSpec{Name: "vcp", Cells: 400, Nets: 450, Pins: 1450, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	h := c.H
	p, info, err := Bipartition(h, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// The hook panics on its third poll, inside the first cycle.
	cfg := MLConfig{Refine: FMConfig{Stop: panicAfter(2)}}
	q, cut, err := VCycleCtx(context.Background(), h, p, 3, cfg, 3)
	var ierr *InternalError
	if !errors.As(err, &ierr) {
		t.Fatalf("error %v is not a *InternalError", err)
	}
	if q == nil {
		t.Fatal("no partition alongside the recovered panic")
	}
	if err := q.Validate(h.NumCells()); err != nil {
		t.Fatal(err)
	}
	if cut > info.Cut || cut != q.WeightedCut(h) {
		t.Errorf("V-cycle returned cut %d (recount %d), input %d", cut, q.WeightedCut(h), info.Cut)
	}
	if !q.IsBalanced(h, Balance(h, 2, 0.1)) {
		t.Error("unbalanced")
	}
}

// TestCoarseningPanicKeepsPrefix pins the coarsening-panic contract of
// the level driver for both k: a panic in the second Match keeps the
// one-level hierarchy built so far, the run partitions and uncoarsens
// it, and the panic comes back as a *PanicError with Stage "coarsen"
// alongside a valid, balanced partition.
func TestCoarseningPanicKeepsPrefix(t *testing.T) {
	c, err := GenerateCircuit(CircuitSpec{Name: "cpp", Cells: 800, Nets: 860, Pins: 2700, Seed: 48})
	if err != nil {
		t.Fatal(err)
	}
	h := c.H
	for _, k := range []int{2, 4} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			plan := &FaultPlan{Entries: []FaultEntry{faultinject.On(faultinject.SiteCoarsenMatch, FaultPanic, 2)}}
			rng := rand.New(rand.NewSource(2))
			var p *Partition
			var levels int
			if k == 2 {
				var res MLResult
				p, res, err = core.BipartitionCtx(context.Background(), h, MLConfig{Audit: true, Inject: plan.NewInjector(0)}, rng)
				levels = res.Levels
			} else {
				var res QuadResult
				p, res, err = core.QuadrisectCtx(context.Background(), h, QuadConfig{Audit: true, Inject: plan.NewInjector(0)}, rng)
				levels = res.Levels
			}
			pe, ok := core.AsPanicError(err)
			if !ok {
				t.Fatalf("error %v is not a *PanicError", err)
			}
			if pe.Stage != "coarsen" || pe.Level != 1 {
				t.Errorf("panic at %s level %d, want coarsen level 1", pe.Stage, pe.Level)
			}
			if levels != 1 {
				t.Errorf("Levels = %d, want the one-level prefix", levels)
			}
			if p == nil {
				t.Fatal("no partition alongside the recovered panic")
			}
			if err := p.Validate(h.NumCells()); err != nil || p.K != k {
				t.Fatalf("invalid %d-way partition (K=%d): %v", k, p.K, err)
			}
			if !p.IsBalanced(h, Balance(h, k, 0.1)) {
				t.Error("partition violates the balance bound")
			}
		})
	}
}

// panicAfter returns a Stop hook that behaves normally for n polls and
// then panics, simulating an internal invariant failure at a chosen
// depth in the pipeline.
func panicAfter(n int) func() bool {
	calls := 0
	return func() bool {
		calls++
		if calls > n {
			panic("injected fault")
		}
		return false
	}
}

// TestPanicRecoveryFlatEngine: a panic inside the flat FM engine must
// surface as a typed *InternalError, not crash the caller.
func TestPanicRecoveryFlatEngine(t *testing.T) {
	c, err := GenerateCircuit(CircuitSpec{Name: "pr", Cells: 200, Nets: 220, Pins: 700, Seed: 44})
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = FMBipartition(c.H, FMConfig{Stop: panicAfter(0)}, 1)
	if err == nil {
		t.Fatal("expected an error from a panicking engine")
	}
	var ierr *InternalError
	if !errors.As(err, &ierr) {
		t.Fatalf("error %v is not a *InternalError", err)
	}
	if ierr.Stage != "fm" {
		t.Errorf("stage = %q, want fm", ierr.Stage)
	}
	if len(ierr.Stack) == 0 {
		t.Error("no stack captured")
	}
}

// TestPanicRecoveryML: panics injected at different depths of the ML
// pipeline (coarsest partitioning vs refinement) must be recovered at
// the stage boundary and returned as a *PanicError alongside a
// feasible, balanced partition built from the surviving work.
func TestPanicRecoveryML(t *testing.T) {
	c, err := GenerateCircuit(CircuitSpec{Name: "prml", Cells: 500, Nets: 560, Pins: 1800, Seed: 45})
	if err != nil {
		t.Fatal(err)
	}
	h := c.H
	// Learn the total Stop-poll count of a clean run; with a fixed seed
	// the pipeline is deterministic, so poll i of the faulty run is the
	// same poll i. Poll 1 happens while partitioning the coarsest
	// netlist, the last poll during refinement of H_0.
	polls := 0
	count := MLConfig{Refine: FMConfig{Stop: func() bool { polls++; return false }}}
	if _, _, err := core.BipartitionCtx(context.Background(), h, count, rand.New(rand.NewSource(2))); err != nil {
		t.Fatal(err)
	}
	if polls < 4 {
		t.Fatalf("only %d Stop polls in a full run", polls)
	}
	for _, tc := range []struct {
		name      string
		after     int
		wantStage string
	}{
		{"coarsest", 0, "coarsest-partition"},
		{"refine", polls - 1, "refine"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := MLConfig{Refine: FMConfig{Stop: panicAfter(tc.after)}}
			p, _, err := core.BipartitionCtx(context.Background(), h, cfg, rand.New(rand.NewSource(2)))
			if err == nil {
				t.Fatal("expected a recovered panic")
			}
			pe, ok := core.AsPanicError(err)
			if !ok {
				t.Fatalf("error %v is not a *PanicError", err)
			}
			if pe.Stage != tc.wantStage {
				t.Errorf("stage = %q, want %q", pe.Stage, tc.wantStage)
			}
			if p == nil {
				t.Fatal("no partition alongside the recovered panic")
			}
			if err := p.Validate(h.NumCells()); err != nil {
				t.Error(err)
			}
			if !p.IsBalanced(h, Balance(h, 2, 0.1)) {
				t.Error("degraded partition violates the balance bound")
			}
		})
	}
}

// TestPanicRecoveryQuadrisect: same contract for the k-way pipeline.
func TestPanicRecoveryQuadrisect(t *testing.T) {
	c, err := GenerateCircuit(CircuitSpec{Name: "prq", Cells: 500, Nets: 560, Pins: 1800, Seed: 46})
	if err != nil {
		t.Fatal(err)
	}
	h := c.H
	cfg := core.QuadConfig{Refine: kway.Config{K: 4, Stop: panicAfter(3)}}
	p, _, err := core.QuadrisectCtx(context.Background(), h, cfg, rand.New(rand.NewSource(2)))
	if err == nil {
		t.Fatal("expected a recovered panic")
	}
	pe, ok := core.AsPanicError(err)
	if !ok {
		t.Fatalf("error %v is not a *PanicError", err)
	}
	if pe.Stage == "" {
		t.Error("empty stage")
	}
	if p == nil {
		t.Fatal("no partition alongside the recovered panic")
	}
	if err := p.Validate(h.NumCells()); err != nil {
		t.Error(err)
	}
	if !p.IsBalanced(h, Balance(h, 4, 0.1)) {
		t.Error("degraded partition violates the balance bound")
	}
}

// TestRecursiveBisectPanicRecovery: a recovered panic inside one
// sub-bipartition must not abort the recursion — the k-way result is
// complete and the first panic is reported alongside it.
func TestRecursiveBisectPanicRecovery(t *testing.T) {
	c, err := GenerateCircuit(CircuitSpec{Name: "prr", Cells: 400, Nets: 440, Pins: 1400, Seed: 47})
	if err != nil {
		t.Fatal(err)
	}
	h := c.H
	cfg := MLConfig{Refine: FMConfig{Stop: panicAfter(2)}}
	p, err := core.RecursiveBisectCtx(context.Background(), h, 4, cfg, rand.New(rand.NewSource(2)))
	if err == nil {
		t.Fatal("expected a recovered panic")
	}
	if _, ok := core.AsPanicError(err); !ok {
		t.Fatalf("error %v is not a *PanicError", err)
	}
	if p == nil {
		t.Fatal("no partition alongside the recovered panic")
	}
	if err := p.Validate(h.NumCells()); err != nil {
		t.Error(err)
	}
}
