package core

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"mlpart/internal/netgen"
)

// TestBipartitionAllocationBudget bounds what one multilevel attempt
// allocates: the arrays its hierarchy keeps (every coarse level's
// hypergraph and every clustering, measured from what Hierarchy
// returns for the same seed), plus one input-sized scratch set. Every
// workspace of the attempt reaches its final size at the finest level,
// so the scratch is a fixed multiple of the input's pins and does not
// grow with the hierarchy's depth.
func TestBipartitionAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	const seed = 1997
	// The input-sized scratch set: refinement arrays and gain buckets,
	// match accumulators and permutation, induce windows and the two
	// projection buffers — about 42 bytes per pin on this circuit.
	// Buffers that grow per level or by doubling push it past 60.
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
		n := 8*coarse.NumCells() + 4*(coarse.NumNets()+1) + 8*coarse.NumPins() + 4*(coarse.NumCells()+1)
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
	t.Logf("%d levels: %d bytes allocated, levels keep %d, scratch %.1f bytes per input pin",
		res.Levels, got, levelBytes, float64(got-min(got, levelBytes))/float64(h.NumPins()))
	if got > limit {
		t.Errorf("one attempt allocated %d bytes, want ≤ %d (levels %d + %d per input pin × %d pins)",
			got, limit, levelBytes, scratchBytesPerPin, h.NumPins())
	}
}
