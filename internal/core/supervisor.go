package core

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"slices"
	"sync"
	"time"

	"mlpart/internal/faultinject"
	"mlpart/internal/telemetry"
)

// Outcome classifies how one start of a multi-start run ended.
type Outcome int

const (
	// OutcomeOK: the start completed cleanly.
	OutcomeOK Outcome = iota
	// OutcomeRecovered: an internal panic was recovered and the start
	// still produced a feasible (degraded) solution.
	OutcomeRecovered
	// OutcomeCancelled: the caller's context was done, so the start
	// was skipped (or abandoned) without producing a solution.
	OutcomeCancelled
	// OutcomeFailed: the start ended without a usable solution.
	OutcomeFailed
)

func (o Outcome) String() string {
	switch o {
	case OutcomeOK:
		return "ok"
	case OutcomeRecovered:
		return "recovered"
	case OutcomeCancelled:
		return "cancelled"
	case OutcomeFailed:
		return "failed"
	}
	return fmt.Sprintf("Outcome(%d)", int(o))
}

// StartReport is the per-start entry of the outcome taxonomy.
type StartReport struct {
	// Start is the 0-based start index.
	Start int
	// Outcome classifies how the start ended.
	Outcome Outcome
	// Cost is the kept solution's objective value (cut or
	// sum-of-degrees); -1 when the start produced no solution.
	Cost int
	// Faults is how many injected faults fired in the start (0
	// without a fault plan).
	Faults int
	// Interrupted reports that the start was cut short by
	// cancellation.
	Interrupted bool
	// Err is the start's error: the recovered *PanicError for
	// OutcomeRecovered, the failure for OutcomeFailed or
	// OutcomeCancelled, nil otherwise.
	Err error
}

// Attempt is what one supervised start returns to RunStarts.
type Attempt[S any] struct {
	// Sol is the solution; read only when HasSol is true.
	Sol S
	// Cost is the objective value used by the deterministic reduction.
	Cost int
	// HasSol reports that Sol is a feasible solution.
	HasSol bool
	// Interrupted reports cooperative cancellation inside the start.
	Interrupted bool
	// Err is the start's error (a *PanicError for recovered panics).
	Err error
}

// SuperOptions configures RunStarts.
type SuperOptions struct {
	// Starts is the number of independent starts. Minimum 1.
	Starts int
	// Parallelism bounds the worker pool; 0 means
	// min(GOMAXPROCS, Starts), 1 runs the starts one at a time on a
	// single worker.
	Parallelism int
	// Seed is the base seed; per-start seeds come from DeriveSeed.
	Seed int64
	// Plan optionally arms deterministic fault injection; each start
	// gets its own derived injector.
	Plan *faultinject.Plan
	// Scratch, when non-nil, is the caller's own workspace bundle (an
	// mlpart.Session's). It serves the starts when a single worker runs
	// them all; otherwise it is left alone.
	Scratch *Scratch
	// Telemetry optionally collects per-start statistics. Each start
	// gets its own child collector (so pool workers never share one),
	// whose statistics are taken as the start ends; they are attached
	// to this parent in start order after the pool drains, which keeps
	// the report bit-identical across Parallelism values. Nil costs
	// one pointer check.
	Telemetry *telemetry.Collector
}

// StartFunc runs one supervised start with its context, derived seed,
// fault injector and telemetry child, on sc, the workspace bundle of
// the worker running it. sc is the start's alone until it returns;
// nothing the start returns may point into it.
type StartFunc[S any] func(ctx context.Context, seed int64, inj *faultinject.Injector, tel *telemetry.Collector, sc *Scratch) Attempt[S]

// DeriveSeed maps (base seed, start) to the start's seed. Start 0
// returns base unchanged, so a single-start run is bit-identical to
// the pre-supervisor sequential code; other starts get independent
// streams via a splitmix64-style finalizer.
func DeriveSeed(base int64, start int) int64 {
	if start == 0 {
		return base
	}
	z := uint64(base) ^ 0x9e3779b97f4a7c15*uint64(start+1) ^ 0xd1b54a32d192ed03
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// RunStarts executes o.Starts supervised starts of run over a bounded
// worker pool and reduces to the best solution with a deterministic
// tie-break (lowest cost, then lowest start index), so the result is
// bit-identical run-to-run and across Parallelism values. The
// reduction streams: a finished start's solution replaces the one kept
// solution if it is better, and a min over (cost, start) does not
// depend on the order in which starts finish.
//
// Each worker runs its starts on one workspace bundle: o.Scratch when
// it is the only worker and o.Scratch is set, otherwise one borrowed
// from scratchPool for the run and returned once every worker has
// exited. A run therefore grows workspaces for at most its workers,
// and only where a bundle it borrows is smaller than its starts need.
//
// Each start runs exactly once, under ctx, with its own derived seed
// and fault injector, and is panic-isolated: a panic escaping run
// becomes a *PanicError that fails only that start. Once ctx is done
// no further start is dispatched; the remaining starts are reported
// cancelled without running. Start 0 always runs, even with a
// pre-cancelled context, so a best-effort degraded solution exists.
//
// The returned error is nil when any start completed cleanly;
// otherwise it is the best start's recovered *PanicError (alongside
// its recovered solution), or the first failure in start order.
func RunStarts[S any](ctx context.Context, o SuperOptions, run StartFunc[S]) (S, int, []StartReport, error) {
	if o.Starts < 1 {
		o.Starts = 1
	}
	par := o.Parallelism
	if par <= 0 {
		par = DefaultWorkers()
	}
	if par > o.Starts {
		par = o.Starts
	}

	reports := make([]StartReport, o.Starts)
	// Per-start statistics, handed to the parent collector in one call
	// after the pool drains (never from pool workers: the parent
	// collector is single-goroutine).
	var stats []telemetry.StartStats
	if o.Telemetry != nil {
		stats = make([]telemetry.StartStats, o.Starts)
	}
	skip := func(s int) {
		reports[s] = StartReport{Start: s, Outcome: OutcomeCancelled, Cost: -1}
		if stats != nil {
			stats[s] = telemetry.StartStats{Start: s, Outcome: OutcomeCancelled.String(), Cost: -1}
		}
	}

	// The kept solution: the lowest (cost, start) seen so far.
	var (
		mu   sync.Mutex
		best = -1
		cost int
		sol  S
	)
	runStart := func(s int, sc *Scratch) {
		if s > 0 && ctx.Err() != nil { // dispatched just before the cancel
			skip(s)
			return
		}
		a, rep, st := superviseStart(ctx, o, s, sc, run)
		reports[s] = rep
		if stats != nil {
			stats[s] = st
		}
		if c := rep.Cost; c >= 0 {
			mu.Lock()
			if best == -1 || c < cost || c == cost && s < best {
				best, cost, sol = s, c, a.Sol
			}
			mu.Unlock()
		}
	}

	// One dispatch path for every par. Each worker runs its starts in
	// order on its own bundle, so no bundle is used by two goroutines
	// at once. The bundles are borrowed and returned here, on the
	// caller's goroutine: a pool keeps what one processor returned for
	// that processor first, and the next call from this goroutine most
	// likely runs where this one ended.
	bundles := make([]*Scratch, par)
	for w := range bundles {
		if par == 1 && o.Scratch != nil {
			bundles[w] = o.Scratch
		} else {
			bundles[w] = scratchPool.Get().(*Scratch)
		}
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for _, sc := range bundles {
		wg.Add(1)
		go func(sc *Scratch) {
			defer wg.Done()
			for s := range idx {
				runStart(s, sc)
			}
		}(sc)
	}
	s := 0
	for ; s < o.Starts && (s == 0 || ctx.Err() == nil); s++ {
		idx <- s
	}
	close(idx)
	for ; s < o.Starts; s++ {
		skip(s)
	}
	wg.Wait()
	for _, sc := range bundles {
		if sc != o.Scratch {
			scratchPool.Put(sc)
		}
	}
	o.Telemetry.AttachStarts(stats)

	var err error
	if !slices.ContainsFunc(reports, func(r StartReport) bool { return r.Outcome == OutcomeOK }) {
		// Prefer the error that accompanies the returned solution
		// (the recovered panic of the best start); otherwise the
		// first failure in start order.
		if best >= 0 && reports[best].Err != nil {
			err = reports[best].Err
		} else if i := slices.IndexFunc(reports, func(r StartReport) bool { return r.Err != nil }); i >= 0 {
			err = reports[i].Err
		}
	}
	return sol, best, reports, err
}

// superviseStart runs start s once and classifies it. It returns the
// start's attempt, whose solution competes in the reduction only when
// the report's Cost is non-negative, and the report. With telemetry
// armed it also returns the start's statistics, taken from the child
// collector that observed it, so the child is dropped when the start
// ends.
func superviseStart[S any](ctx context.Context, o SuperOptions, s int, sc *Scratch, run StartFunc[S]) (Attempt[S], StartReport, telemetry.StartStats) {
	var t0 time.Time
	if o.Telemetry != nil {
		//mllint:ignore par-purity telemetry-gated wall clock: the duration lands in the start's own statistics, never in results
		t0 = time.Now()
	}
	inj := o.Plan.NewInjector(s)
	tel := o.Telemetry.NewChild()
	a := runIsolated(ctx, DeriveSeed(o.Seed, s), inj, tel, sc, run)
	rep := StartReport{Start: s, Cost: -1, Faults: inj.Fired(), Interrupted: a.Interrupted, Err: a.Err}
	_, recovered := AsPanicError(a.Err)
	switch {
	case a.HasSol && a.Err == nil:
		rep.Outcome, rep.Cost = OutcomeOK, a.Cost
	case a.HasSol && recovered:
		// Recovered panic with a feasible degraded solution: the
		// solution is valid, so it competes in the reduction.
		rep.Outcome, rep.Cost = OutcomeRecovered, a.Cost
	case ctx.Err() != nil:
		rep.Outcome = OutcomeCancelled
	default:
		rep.Outcome = OutcomeFailed
		if rep.Err == nil {
			rep.Err = errors.New("core: start produced no solution")
		}
	}
	var st telemetry.StartStats
	if tel != nil {
		//mllint:ignore par-purity telemetry-gated wall clock: the duration lands in the start's own statistics, never in results
		st = tel.TakeStart(s, rep.Outcome.String(), rep.Cost, time.Since(t0).Nanoseconds())
	}
	return a, rep, st
}

// runIsolated is the belt-and-braces panic barrier around one attempt:
// the stage Guards inside the pipeline recover their own panics, but
// nothing run on a pool worker may ever escape and kill the process.
func runIsolated[S any](ctx context.Context, seed int64, inj *faultinject.Injector, tel *telemetry.Collector, sc *Scratch, run StartFunc[S]) (a Attempt[S]) {
	defer func() {
		if v := recover(); v != nil {
			a = Attempt[S]{Err: &PanicError{Stage: "start", Level: -1, Value: v, Stack: debug.Stack()}}
		}
	}()
	return run(ctx, seed, inj, tel, sc)
}
