package core

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"mlpart/internal/coarsen"
	"mlpart/internal/faultinject"
	"mlpart/internal/hypergraph"
	"mlpart/internal/netgen"
	"mlpart/internal/telemetry"
)

// TestBipartitionAllocationBudget bounds what one multilevel attempt
// allocates: the arrays its hierarchy keeps (every coarse level's
// areas, net side and weights, and every clustering, measured from
// what Hierarchy returns for the same seed), plus one input-sized
// scratch set. Every workspace of the attempt reaches its final size
// at the finest level, so the scratch is a fixed multiple of the
// input's pins and does not grow with the hierarchy's depth. Coarse
// levels share one cell side, so a change that gives each level its
// own again (about 4.5 bytes per input pin per level) fails the bound.
// The hierarchy itself is bounded too: the stall rule ends it after 11
// levels that keep 47.8 bytes per input pin, where coarsening until no
// pair merges built 19 levels keeping 62.2, so stalled levels coming
// back fail the level bound.
func TestBipartitionAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	const seed = 1997
	// The input-sized scratch set: refinement arrays and gain buckets,
	// match accumulators and permutation, induce windows (whose pin
	// buffer doubles as the shared cell side), the shared cell offsets
	// and the two projection buffers — about 33 bytes per pin on this
	// circuit. Buffers that grow per level or by doubling push it past
	// 60.
	const scratchBytesPerPin = 40
	// The arrays the hierarchy keeps.
	const levelBytesPerPin = 50
	circ := netgen.MustGenerate(netgen.Spec{Name: "budget", Cells: 8000, Nets: 8500, Pins: 28000, Seed: seed})
	h := circ.H
	cfg := Config{Ratio: 0.5}

	hs, cs, err := Hierarchy(h, cfg, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	var levelBytes uint64
	for _, coarse := range hs[1:] {
		n := 8*coarse.NumCells() + 4*(coarse.NumNets()+1) + 4*coarse.NumPins()
		if coarse.Weighted() {
			n += 4 * coarse.NumNets()
		}
		levelBytes += uint64(n)
	}
	for _, c := range cs {
		levelBytes += 4 * uint64(len(c.CellToCluster))
	}
	if limit := levelBytesPerPin * uint64(h.NumPins()); levelBytes > limit {
		t.Errorf("the %d-level hierarchy keeps %d bytes, want ≤ %d (%d per input pin): has coarsening stopped stalling?",
			len(hs)-1, levelBytes, limit, levelBytesPerPin)
	}

	// Warm-up: the first call in a process also pays one-time runtime
	// costs that are not the attempt's.
	if _, _, err := BipartitionCtx(context.Background(), h, cfg, rand.New(rand.NewSource(seed))); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, res, err := BipartitionCtx(context.Background(), h, cfg, rand.New(rand.NewSource(seed)))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.Levels != len(hs)-1 {
		t.Fatalf("BipartitionCtx used %d levels, Hierarchy built %d", res.Levels, len(hs)-1)
	}
	got := after.TotalAlloc - before.TotalAlloc
	limit := levelBytes + scratchBytesPerPin*uint64(h.NumPins())
	t.Logf("%d levels: %d bytes allocated (limit %d), levels keep %d, scratch %.1f bytes per input pin",
		res.Levels, got, limit, levelBytes, float64(got-min(got, levelBytes))/float64(h.NumPins()))
	if got > limit {
		t.Errorf("one attempt allocated %d bytes, want ≤ %d (levels %d + %d per input pin × %d pins)",
			got, limit, levelBytes, scratchBytesPerPin, h.NumPins())
	}
}

// The steady-state bound: a job on warm workspaces allocates at most
// partitionMultiple times its partition's bytes plus slackBytes.
const (
	partitionMultiple = 4
	slackBytes        = 16 << 10
)

// TestScratchSteadyStateAllocationBudget bounds what a job allocates
// on a warmed Scratch, the bundle each mlpartd worker's Session
// reuses: the second identical job finds the scratch set, the
// hierarchy store and the generator already sized, so it allocates
// little beyond the partitions it returns. The bound is a small
// multiple of the returned partition's bytes plus a fixed slack for
// per-call bookkeeping (level list, result slices, struct headers).
//
// Measured with go1.24 on linux/amd64, the second job allocates 2.6 to
// 3.3 times the partition's bytes: the two finest-level projection
// buffers are two of them. Without the hierarchy store it allocated 48
// to 77 times, which this bound (4× + 16 KiB) catches by 10× or more.
func TestScratchSteadyStateAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	for _, size := range []struct{ cells, nets, pins int }{{2000, 2100, 7000}, {8000, 8500, 28000}} {
		circ := netgen.MustGenerate(netgen.Spec{Name: "steady", Cells: size.cells, Nets: size.nets, Pins: size.pins, Seed: 1997})
		h := circ.H
		for _, k := range []int{2, 4} {
			s := NewScratch()
			job := func() {
				var err error
				if k == 2 {
					_, _, err = BipartitionCtx(context.Background(), h, Config{Scratch: s}, s.Rand(7))
				} else {
					_, _, err = QuadrisectCtx(context.Background(), h, QuadConfig{Scratch: s}, s.Rand(7))
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			job()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			job()
			runtime.ReadMemStats(&after)
			got := after.TotalAlloc - before.TotalAlloc
			partBytes := 4 * uint64(h.NumCells())
			limit := partitionMultiple*partBytes + slackBytes
			t.Logf("%d cells, k = %d: %d bytes (%.1f× the partition's %d)", h.NumCells(), k, got, float64(got)/float64(partBytes), partBytes)
			if got > limit {
				t.Errorf("%d cells, k = %d: the second job on a warm Scratch allocated %d bytes, want ≤ %d (%d× the partition's %d bytes + %d)",
					h.NumCells(), k, got, limit, partitionMultiple, partBytes, slackBytes)
			}
		}
	}
}

// TestPooledStartsAllocationBudget bounds what a run allocates when
// its workers borrow their bundles from scratchPool, the path of every
// package-level mlpart call. A warm single-start k = 2 run finds its
// worker's bundle sized by the run before it and stays within the
// steady-state bound of a warm Scratch. Sixteen starts at Parallelism
// 2 run on two bundles, not sixteen: the bound is a quarter of what
// sixteen cold bundles allocate, which per-start bundles exceed
// fourfold.
func TestPooledStartsAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts, and sync.Pool drops Puts at random under it")
	}
	circ := netgen.MustGenerate(netgen.Spec{Name: "pooled", Cells: 2000, Nets: 2100, Pins: 7000, Seed: 1997})
	h := circ.H
	start := func(ctx context.Context, seed int64, inj *faultinject.Injector, tel *telemetry.Collector, sc *Scratch) Attempt[*hypergraph.Partition] {
		p, res, err := BipartitionCtx(ctx, h, Config{Inject: inj, Telemetry: tel, Scratch: sc}, sc.Rand(seed))
		return Attempt[*hypergraph.Partition]{Sol: p, Cost: res.Cut, HasSol: p != nil, Err: err}
	}
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	run := func(o SuperOptions) func() {
		return func() {
			if _, _, _, err := RunStarts(context.Background(), o, start); err != nil {
				t.Fatal(err)
			}
		}
	}
	// warm collects, then runs o once to size the pooled bundles. The
	// collection comes first: one in progress can park this goroutine
	// (in an assist, or in ReadMemStats), which may then resume on
	// another processor than the one the pool kept the bundles for.
	warm := func(o SuperOptions) {
		runtime.GC()
		run(o)()
	}

	// What one start allocates on a cold bundle of its own.
	cold := allocated(run(SuperOptions{Seed: 7, Starts: 1, Parallelism: 1, Scratch: NewScratch()}))

	single := SuperOptions{Seed: 7, Starts: 1, Parallelism: 1}
	warm(single)
	got := allocated(run(single))
	partBytes := 4 * uint64(h.NumCells())
	limit := partitionMultiple*partBytes + slackBytes
	t.Logf("single start: %d bytes warm (%.1f× the partition's %d), %d on a cold bundle", got, float64(got)/float64(partBytes), partBytes, cold)
	if got > limit {
		t.Errorf("a warm single-start run allocated %d bytes, want ≤ %d (%d× the partition's %d bytes + %d)",
			got, limit, partitionMultiple, partBytes, slackBytes)
	}

	multi := SuperOptions{Seed: 7, Starts: 16, Parallelism: 2}
	warm(multi)
	got = allocated(run(multi))
	limit = 16 * cold / 4
	t.Logf("16 starts at Parallelism 2: %d bytes warm, %d for 16 cold bundles", got, 16*cold)
	if got > limit {
		t.Errorf("16 starts at Parallelism 2 allocated %d bytes, want ≤ %d (a quarter of 16 cold bundles' %d)", got, limit, 16*cold)
	}
}

// TestVCycleLaterCyclesReuseHierarchy checks that a V-cycle's cycles
// after the first rebuild their restricted hierarchies in the store
// the first cycle filled: the second cycle adds no coarse-level arrays,
// only what a warm job allocates (see the steady-state bound). With
// the stall rule on, the second cycle, restricted around a better
// solution, stalls deeper than the first; only the levels below the
// first cycle's deepest need new slots, and the bound grows by exactly
// their arrays. With f = 1 neither cycle stalls and no level is new.
func TestVCycleLaterCyclesReuseHierarchy(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	circ := netgen.MustGenerate(netgen.Spec{Name: "vcycle-budget", Cells: 8000, Nets: 8500, Pins: 28000, Seed: 1997})
	h := circ.H
	start := hypergraph.RandomPartition(h, 2, 0.1, rand.New(rand.NewSource(3)))
	for _, f := range []float64{1, coarsen.DefaultStallFraction} {
		cfg := Config{Ratio: 0.5, StallFraction: f}
		run := func(cycles int, tel *telemetry.Collector) (uint64, int) {
			cfg := cfg
			cfg.Telemetry = tel
			rng := rand.New(rand.NewSource(5))
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, cut, err := VCycleCtx(context.Background(), h, start, cycles, cfg, rng)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			return after.TotalAlloc - before.TotalAlloc, cut
		}
		run(1, nil) // warm-up: one-time runtime costs are not the cycle's
		one, cut := run(1, nil)
		if cut >= start.WeightedCut(h) {
			t.Fatalf("f = %v: the first cycle did not improve the start (cut %d), so no second cycle runs", f, cut)
		}
		two, _ := run(2, nil)
		second := two - min(two, one)
		// The levels of both cycles, from a separate run: telemetry
		// draws no random numbers, so the hierarchies are the same.
		tel := telemetry.New()
		run(2, tel)
		var cycles [][]telemetry.LevelStat
		for _, l := range tel.TakeStart(0, "ok", 0, 1).Coarsening {
			if l.Level == 0 {
				cycles = append(cycles, nil)
			}
			cycles[len(cycles)-1] = append(cycles[len(cycles)-1], l)
		}
		if len(cycles) != 2 {
			t.Fatalf("f = %v: telemetry shows %d coarsenings, want 2", f, len(cycles))
		}
		// A level below the first cycle's deepest takes a new slot: its
		// areas, net side and pushed-up solution, and the clustering of
		// the level above it.
		var newLevels uint64
		for i := len(cycles[0]); i < len(cycles[1]); i++ {
			l, finer := cycles[1][i], cycles[1][i-1]
			newLevels += uint64(8*l.Cells + 4*(l.Nets+1) + 4*l.Pins + 4*l.Cells + 4*finer.Cells)
		}
		if f == 1 && newLevels != 0 {
			t.Errorf("f = 1: the second cycle built %d levels, the first %d", len(cycles[1]), len(cycles[0]))
		}
		// A cycle also clones the best solution it starts from.
		limit := (partitionMultiple+1)*4*uint64(h.NumCells()) + slackBytes + newLevels
		t.Logf("f = %v: first cycle %d bytes (%d levels), second cycle %d bytes (%d levels, %d bytes of new ones)",
			f, one, len(cycles[0]), second, len(cycles[1]), newLevels)
		if second > limit {
			t.Errorf("f = %v: the second V-cycle allocated %d bytes, want ≤ %d: it should rebuild its levels in the first cycle's store", f, second, limit)
		}
	}
}
