package core

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"mlpart/internal/hypergraph"
	"mlpart/internal/netgen"
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
func TestBipartitionAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	const seed = 1997
	// The input-sized scratch set: refinement arrays and gain buckets,
	// match accumulators and permutation, induce windows (whose pin
	// buffer doubles as the shared cell side), the shared cell offsets
	// and the two projection buffers — about 42 bytes per pin on this
	// circuit. Buffers that grow per level or by doubling push it past
	// 60.
	const scratchBytesPerPin = 48
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

// TestVCycleLaterCyclesReuseHierarchy checks that a V-cycle's cycles
// after the first rebuild their restricted hierarchies in the store
// the first cycle filled: the second cycle adds no coarse-level
// arrays, only what a warm job allocates (see the steady-state bound).
func TestVCycleLaterCyclesReuseHierarchy(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	circ := netgen.MustGenerate(netgen.Spec{Name: "vcycle-budget", Cells: 8000, Nets: 8500, Pins: 28000, Seed: 1997})
	h := circ.H
	cfg := Config{Ratio: 0.5}
	start := hypergraph.RandomPartition(h, 2, 0.1, rand.New(rand.NewSource(3)))
	run := func(cycles int) (uint64, int) {
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
	run(1) // warm-up: one-time runtime costs are not the cycle's
	one, cut := run(1)
	if cut >= start.WeightedCut(h) {
		t.Fatalf("the first cycle did not improve the start (cut %d), so no second cycle runs", cut)
	}
	two, _ := run(2)
	second := two - min(two, one)
	// A cycle also clones the best solution it starts from.
	limit := (partitionMultiple+1)*4*uint64(h.NumCells()) + slackBytes
	t.Logf("first cycle %d bytes, second cycle %d bytes", one, second)
	if second > limit {
		t.Errorf("the second V-cycle allocated %d bytes, want ≤ %d: it should rebuild its levels in the first cycle's store", second, limit)
	}
}
