// Package intrapar provides the deterministic intra-run worker pool
// of the pipeline: a fixed set of goroutines that execute
// caller-supplied range functions over [0, n) split into contiguous
// ranges whose boundaries depend only on (n, worker count), never on
// scheduling.
//
// Determinism contract: the pool never makes an ordering decision.
// Callers hand Run a pure range function (no shared writes outside the
// worker's own output slot, no RNG, no wall clock — the par-purity
// lint enforces this for the pipeline packages) and perform any merge
// of per-worker results themselves, in range-index order, on the
// calling goroutine. Everything order-dependent therefore happens
// serially, which is what makes the parallel pipeline stages
// bit-identical across worker counts.
//
// A pool belongs to one pipeline attempt: the supervisor's attempt
// closures create one per attempt (inside core's pipelineWS bundle)
// and Close it when the attempt returns, so no goroutines or channels
// outlive a run. A pool with one worker executes ranges inline on the
// calling goroutine — no goroutines are ever spawned. A nil *Pool is
// the one-wide inline pool: Run calls fn(0, 0, n) directly, Workers
// reports 1, Regions stays 0 and Close does nothing, so every
// pool-driven stage has exactly one implementation and the serial
// pipeline is simply that implementation at width one.
package intrapar

// task is one range execution request.
type task struct {
	fn     func(worker, lo, hi int)
	worker int
	lo, hi int
}

// outcome reports one completed range, carrying a recovered panic
// value when the range function panicked.
type outcome struct {
	worker   int
	panicked bool
	pv       any
}

// Pool is a fixed-size worker pool. The zero value is not usable; use
// New, or a nil *Pool for inline execution. A Pool is owned by a single goroutine: Run and Regions must not
// be called concurrently (the pipeline calls them from the attempt
// goroutine only).
type Pool struct {
	workers int
	tasks   chan task
	done    chan outcome
	regions int64
}

// New returns a pool with the given number of workers (values below 1
// are treated as 1). With one worker no goroutines are started and Run
// executes inline.
func New(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	p := &Pool{workers: workers}
	if workers > 1 {
		p.tasks = make(chan task)
		p.done = make(chan outcome, workers)
		for i := 0; i < workers; i++ {
			go work(p.tasks, p.done)
		}
	}
	return p
}

// Workers returns the pool size; 1 for a nil pool.
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return p.workers
}

// Regions returns how many Run invocations the pool has executed —
// the per-stage parallel-region counters of the telemetry layer are
// deltas of this value. Incremented on the calling goroutine; always 0
// for a nil pool, which dispatches no parallel regions.
func (p *Pool) Regions() int64 {
	if p == nil {
		return 0
	}
	return p.regions
}

// Run splits [0, n) into at most Workers() contiguous non-empty
// ranges and executes fn once per range. Range boundaries are a pure
// function of (n, Workers()): range i covers n/w cells plus one of the
// n%w leftovers for i < n%w, in index order. fn receives the range
// index as worker — per-range scratch and output slots are indexed by
// it — and must not write shared state outside its own slot.
//
// Run returns after every range completes. If any range function
// panics, the panic with the lowest range index is re-raised on the
// calling goroutine (after all ranges finish), so the pipeline's
// recovery barriers observe worker panics exactly where they observe
// serial ones. On a nil pool Run is a plain inline call.
func (p *Pool) Run(n int, fn func(worker, lo, hi int)) {
	if p == nil {
		if n > 0 {
			fn(0, 0, n)
		}
		return
	}
	p.regions++
	if n <= 0 {
		return
	}
	w := p.workers
	if w > n {
		w = n
	}
	if w <= 1 {
		fn(0, 0, n)
		return
	}
	base, rem := n/w, n%w
	lo := 0
	for i := 0; i < w; i++ {
		hi := lo + base
		if i < rem {
			hi++
		}
		p.tasks <- task{fn: fn, worker: i, lo: lo, hi: hi}
		lo = hi
	}
	panicked := false
	panicWorker := 0
	var pv any
	for i := 0; i < w; i++ {
		o := <-p.done
		if o.panicked && (!panicked || o.worker < panicWorker) {
			panicked = true
			panicWorker = o.worker
			pv = o.pv
		}
	}
	if panicked {
		panic(pv)
	}
}

// Close shuts the worker goroutines down. The pool must be idle (no
// Run in flight) and must not be used afterwards. Closing a
// single-worker pool is a no-op. Safe to call on a nil pool, so the
// pipeline can defer Close unconditionally.
func (p *Pool) Close() {
	if p == nil || p.tasks == nil {
		return
	}
	close(p.tasks)
	p.tasks = nil
}

// work is the worker-goroutine loop: execute tasks until Close. The
// channels are parameters, not field reads, so Close's field clear
// does not race with running workers.
func work(tasks <-chan task, done chan<- outcome) {
	for t := range tasks {
		done <- run(t)
	}
}

// run executes one task behind a recover barrier so a panicking range
// function cannot kill the worker goroutine; the panic value is
// shipped back to Run and re-raised there.
func run(t task) (o outcome) {
	o.worker = t.worker
	defer func() {
		if pv := recover(); pv != nil {
			o.panicked = true
			o.pv = pv
		}
	}()
	t.fn(t.worker, t.lo, t.hi)
	return o
}
