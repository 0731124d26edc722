package core

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
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
	// Telemetry optionally collects per-start statistics. Each start
	// gets its own child collector (so pool workers never share one);
	// the children are merged into this parent in start order after
	// the pool drains, which keeps the report bit-identical across
	// Parallelism values. Nil costs one pointer check.
	Telemetry *telemetry.Collector
}

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
// bit-identical run-to-run and across Parallelism values.
//
// Each start runs exactly once, under ctx, with its own derived seed
// and fault injector, and is panic-isolated: a panic escaping run
// becomes a *PanicError that fails only that start. Starts after the
// first are skipped once ctx is done; start 0 always runs, even with
// a pre-cancelled context, so a best-effort degraded solution exists.
//
// The returned error is nil when any start completed cleanly;
// otherwise it is the lowest-start recovered *PanicError (alongside
// the best recovered solution), or the first failure.
func RunStarts[S any](ctx context.Context, o SuperOptions, run func(ctx context.Context, seed int64, inj *faultinject.Injector, tel *telemetry.Collector) Attempt[S]) (S, int, []StartReport, error) {
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
	sols := make([]Attempt[S], o.Starts)
	// Per-start telemetry children and wall-clock, merged into the
	// parent in start order after the pool drains (never from pool
	// workers — the parent collector is single-goroutine).
	var tels []*telemetry.Collector
	var startNS []int64
	if o.Telemetry != nil {
		tels = make([]*telemetry.Collector, o.Starts)
		startNS = make([]int64, o.Starts)
	}
	runStart := func(s int) {
		var t0 time.Time
		if o.Telemetry != nil {
			//mllint:ignore par-purity telemetry-gated wall clock: durations land in per-start slots merged in start order, never in results
			t0 = time.Now()
		}
		var tel *telemetry.Collector
		reports[s], tel = superviseStart(ctx, o, s, run, &sols[s])
		if o.Telemetry != nil {
			tels[s] = tel
			//mllint:ignore par-purity telemetry-gated wall clock: durations land in per-start slots merged in start order, never in results
			startNS[s] = time.Since(t0).Nanoseconds()
		}
	}

	// One dispatch path for every par: with par == 1 a single worker
	// runs the starts in order, so a Scratch threaded through run is
	// still used by one goroutine at a time.
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range idx {
				runStart(s)
			}
		}()
	}
	for s := 0; s < o.Starts; s++ {
		idx <- s
	}
	close(idx)
	wg.Wait()

	if o.Telemetry != nil {
		for s := range reports {
			r := reports[s]
			o.Telemetry.AttachStart(tels[s].TakeStart(s, r.Outcome.String(), r.Cost, startNS[s]))
		}
	}

	// Deterministic reduction: lowest cost wins, ties to the lowest
	// start index (ascending scan with a strict comparison).
	best := -1
	clean := false
	for s, r := range reports {
		clean = clean || r.Outcome == OutcomeOK
		if r.Cost >= 0 && (best == -1 || r.Cost < reports[best].Cost) {
			best = s
		}
	}

	var err error
	if !clean {
		// Prefer the error that accompanies the returned solution
		// (the recovered panic of the best start); otherwise the
		// first failure in start order.
		if best >= 0 && reports[best].Err != nil {
			err = reports[best].Err
		} else {
			for _, r := range reports {
				if r.Err != nil {
					err = r.Err
					break
				}
			}
		}
	}
	var sol S
	if best >= 0 {
		sol = sols[best].Sol
	}
	return sol, best, reports, err
}

// superviseStart runs start s once and classifies it. The kept
// solution (if any) is written to *keep and signalled by a
// non-negative Cost in the report. The returned collector is the
// child that observed the start (nil when telemetry is disabled or
// the start was skipped).
func superviseStart[S any](ctx context.Context, o SuperOptions, s int, run func(ctx context.Context, seed int64, inj *faultinject.Injector, tel *telemetry.Collector) Attempt[S], keep *Attempt[S]) (StartReport, *telemetry.Collector) {
	rep := StartReport{Start: s, Cost: -1}
	if s > 0 && ctx.Err() != nil {
		rep.Outcome = OutcomeCancelled
		return rep, nil
	}
	inj := o.Plan.NewInjector(s)
	tel := o.Telemetry.NewChild()
	a := runIsolated(ctx, DeriveSeed(o.Seed, s), inj, tel, run)
	rep.Faults = inj.Fired()
	rep.Interrupted = a.Interrupted
	rep.Err = a.Err
	_, recovered := AsPanicError(a.Err)
	switch {
	case a.HasSol && a.Err == nil:
		rep.Outcome = OutcomeOK
	case a.HasSol && recovered:
		// Recovered panic with a feasible degraded solution: the
		// solution is valid, so it competes in the reduction.
		rep.Outcome = OutcomeRecovered
	case ctx.Err() != nil:
		rep.Outcome = OutcomeCancelled
		return rep, tel
	default:
		rep.Outcome = OutcomeFailed
		if rep.Err == nil {
			rep.Err = errors.New("core: start produced no solution")
		}
		return rep, tel
	}
	*keep = a
	rep.Cost = a.Cost
	return rep, tel
}

// runIsolated is the belt-and-braces panic barrier around one attempt:
// the stage Guards inside the pipeline recover their own panics, but
// nothing run on a pool worker may ever escape and kill the process.
func runIsolated[S any](ctx context.Context, seed int64, inj *faultinject.Injector, tel *telemetry.Collector, run func(ctx context.Context, seed int64, inj *faultinject.Injector, tel *telemetry.Collector) Attempt[S]) (a Attempt[S]) {
	defer func() {
		if v := recover(); v != nil {
			a = Attempt[S]{Err: &PanicError{Stage: "start", Level: -1, Value: v, Stack: debug.Stack()}}
		}
	}()
	return run(ctx, seed, inj, tel)
}
