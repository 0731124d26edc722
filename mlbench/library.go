package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"

	"mlpart"
)

// tolerance is the balance tolerance every op runs with (the Options
// default); outputs are checked against the same bound.
const tolerance = 0.1

// runOp calls the public entry point for o. tel may be nil.
func runOp(h *mlpart.Hypergraph, o op, tel *mlpart.Telemetry) (*mlpart.Partition, mlpart.Info, error) {
	opt := o.opt
	opt.Telemetry = tel
	if o.k == 4 {
		return mlpart.Quadrisect(h, opt)
	}
	return mlpart.Bipartition(h, opt)
}

// verify checks a k-way partition of h against the cut and
// sum-of-degrees its producer reported, and returns the objective the
// workload averages: the cut for k=2, the sum of degrees for k=4.
func verify(h *mlpart.Hypergraph, k int, p *mlpart.Partition, cut, sumDegrees int) (int, error) {
	if p == nil {
		return 0, fmt.Errorf("no partition")
	}
	if err := p.Validate(h.NumCells()); err != nil {
		return 0, err
	}
	if p.K != k {
		return 0, fmt.Errorf("partition has K=%d, want %d", p.K, k)
	}
	if !p.IsBalanced(h, mlpart.Balance(h, k, tolerance)) {
		return 0, fmt.Errorf("partition violates the balance bound")
	}
	if got := p.Cut(h); got != cut {
		return 0, fmt.Errorf("recounted cut %d, reported %d", got, cut)
	}
	if got := p.SumOfDegrees(h); got != sumDegrees {
		return 0, fmt.Errorf("recounted sum of degrees %d, reported %d", got, sumDegrees)
	}
	if k == 2 {
		return cut, nil
	}
	return sumDegrees, nil
}

// checkOp verifies one entry-point call.
func checkOp(h *mlpart.Hypergraph, o op, p *mlpart.Partition, info mlpart.Info, err error) (int, error) {
	if err == nil {
		var obj int
		if obj, err = verify(h, o.k, p, info.Cut, info.SumDegrees); err == nil {
			return obj, nil
		}
	}
	return 0, fmt.Errorf("op %d (circuit %d, k=%d, seed %d): %w", o.index, o.circuit, o.k, o.opt.Seed, err)
}

// libraryWorkload runs ops back to back on this goroutine, each a
// single-start call of the public entry point, for the configured
// duration and at least the cycle.
func libraryWorkload(w workload, cfg config, rep *report) error {
	circs, setupS, err := setUp(rep.log, func() ([]circuit, error) {
		circs, err := w.genCircuits(cfg.seed)
		if err != nil {
			return nil, err
		}
		warm, err := w.warmCircuits()
		if err != nil {
			return nil, err
		}
		for _, o := range w.warmOps(len(warm)) {
			p, info, err := runOp(warm[o.circuit].h, o, nil)
			if _, err := checkOp(warm[o.circuit].h, o, p, info, err); err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
		return circs, nil
	}, func([]circuit) {})
	if err != nil {
		return err
	}

	objectives := make([]int, w.cycle)
	ops := 0
	mem := startMem()
	deadline := time.Now().Add(cfg.duration())
	for ; ops < w.cycle || time.Now().Before(deadline); ops++ {
		o := w.op(cfg.seed, ops)
		h := circs[o.circuit].h
		p, info, err := runOp(h, o, nil)
		obj, err := checkOp(h, o, p, info, err)
		if ops < w.cycle {
			objectives[ops] = obj
		}
		if ops == w.cycle-1 {
			mem.cycleRSS = peakRSS()
		}
		rep.op(err)
	}
	mem.stop(ops)
	rep.add("setup_s", setupS, "s", 0)
	rep.add("cut_mean", meanInt(objectives), "nets", 0)
	mem.add(rep)
	rep.setDigest(objectives)
	return nil
}

func meanInt(xs []int) float64 {
	sum := 0
	for _, x := range xs {
		sum += x
	}
	return float64(sum) / float64(len(xs))
}

// memProbe brackets a measured phase with runtime.MemStats reads.
type memProbe struct {
	before, after runtime.MemStats
	ops           int
	// cycleRSS is the peak resident set size when the cycle completed:
	// a fixed amount of work, so a service that keeps more jobs because
	// it ran more of them in the same seconds does not read as bigger.
	cycleRSS int64
}

func startMem() *memProbe {
	m := &memProbe{}
	runtime.GC()
	runtime.ReadMemStats(&m.before)
	return m
}

// stop ends the phase, which ran ops ops.
func (m *memProbe) stop(ops int) {
	runtime.ReadMemStats(&m.after)
	m.ops = ops
}

// add reports the Go heap allocation volume per op and the peak
// resident set size by the end of the cycle.
func (m *memProbe) add(rep *report) {
	const mib = 1 << 20
	rep.add("alloc_mib_per_op", float64(m.after.TotalAlloc-m.before.TotalAlloc)/mib/float64(m.ops), "MiB", 0)
	rep.add("peak_rss_mib", float64(m.cycleRSS)/mib, "MiB", 0)
}

// peakRSS is the process's peak resident set size so far, in bytes.
func peakRSS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss << 10 // Linux reports KiB
}
