package kway

// Differential "Oracle" test for the blocked-target skip in
// selectMove: complete passes must select exactly the moves of the
// full bucket scan it replaced.

import (
	"math/rand"
	"testing"

	"mlpart/internal/coarsen"
	"mlpart/internal/fm"
	"mlpart/internal/hypergraph"
	"mlpart/internal/netgen"
)

// areaH is randomH with cell areas drawn from [minArea, 5]; a zero
// minimum keeps zero-area cells in play, whose presence disables the
// blocked-target skip (no block is ever too full for a zero-area cell).
func areaH(rng *rand.Rand, n, m, maxPins int, minArea int64) *hypergraph.Hypergraph {
	b := hypergraph.NewBuilder(n)
	for v := 0; v < n; v++ {
		b.SetArea(v, minArea+rng.Int63n(6-minArea))
	}
	for e := 0; e < m; e++ {
		pins := make([]int, 2+rng.Intn(maxPins-1))
		for i := range pins {
			pins[i] = rng.Intn(n)
		}
		b.AddNet(pins...)
	}
	return b.MustBuild()
}

// coarseLevels returns a netgen circuit and the first levels of its
// coarsening hierarchy, whose cluster areas grow and spread with depth.
func coarseLevels(t *testing.T, cells int, seed int64) []*hypergraph.Hypergraph {
	t.Helper()
	c, err := netgen.Generate(netgen.Spec{Name: "oracle", Cells: cells, Nets: cells + cells/10, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	levels := []*hypergraph.Hypergraph{c.H}
	rng := rand.New(rand.NewSource(seed))
	for len(levels) < 4 {
		h := levels[len(levels)-1]
		cl, err := coarsen.Match(h, coarsen.Config{}, rng)
		if err != nil {
			t.Fatal(err)
		}
		coarse, err := hypergraph.InduceWSPar(h, cl, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		levels = append(levels, coarse)
	}
	return levels
}

// fullScanSelect is selectMove as it was before the blocked-target
// skip: every target bucket is scanned until a feasible move or one
// no better than the best so far turns up. blocked counts the scans
// that visited cells bound for a block that cannot take the smallest
// cell — the scans selectMove elides.
func fullScanSelect(r *refiner, minArea int64, blocked *int) (int32, int32) {
	bestV, bestT := int32(-1), int32(-1)
	bestG := 0
	for t := int32(0); int(t) < r.k; t++ {
		visited := 0
		r.buckets[t].Iterate(func(v int32, g int) bool {
			if bestV >= 0 && g <= bestG {
				return false
			}
			visited++
			a := r.h.Area(int(v))
			if r.areas[t]+a <= r.bound.Hi && r.areas[r.p.Part[v]]-a >= r.bound.Lo {
				bestV, bestT, bestG = v, t, g
				return false
			}
			return true
		})
		if visited > 0 && r.areas[t]+minArea > r.bound.Hi {
			*blocked++
		}
	}
	return bestV, bestT
}

// TestOracleSelectMoveMatchesFullScan runs complete passes of two
// refiners in lockstep from the same partition and seed: one selects
// with selectMove, the other with the full-scan reference. Every
// (cell, target) selection must agree.
func TestOracleSelectMoveMatchesFullScan(t *testing.T) {
	var instances []*hypergraph.Hypergraph
	rng := rand.New(rand.NewSource(47))
	for i := 0; i < 4; i++ {
		instances = append(instances, areaH(rng, 100+40*i, 130+40*i, 5, int64(i%2)))
	}
	instances = append(instances, coarseLevels(t, 500, 9)...)
	blocked := 0
	for hi, h := range instances {
		var minArea int64 = 1 << 62
		for v := 0; v < h.NumCells(); v++ {
			if a := h.Area(v); a < minArea {
				minArea = a
			}
		}
		for _, eng := range []fm.Engine{fm.EngineFM, fm.EngineCLIP} {
			for _, obj := range []Objective{NetCut, SumOfDegrees} {
				for _, withFixed := range []bool{false, true} {
					seed := int64(100*hi) + int64(eng)*10 + int64(obj)*2
					prng := rand.New(rand.NewSource(seed))
					init := hypergraph.RandomPartition(h, 4, 0.05, prng)
					cfg := Config{Engine: eng, Objective: obj, Tolerance: 0.05}
					if withFixed {
						cfg.Fixed = make([]bool, h.NumCells())
						for v := range cfg.Fixed {
							cfg.Fixed[v] = prng.Intn(10) == 0
						}
					}
					cfg, err := cfg.Normalize()
					if err != nil {
						t.Fatal(err)
					}
					got := newRefiner(h, init.Clone(), cfg, rand.New(rand.NewSource(seed)))
					ref := newRefiner(h, init.Clone(), cfg, rand.New(rand.NewSource(seed)))
					got.computeCounts()
					ref.computeCounts()
					for pass := 0; pass < 10; pass++ {
						got.initPass()
						ref.initPass()
						bestGain, cumGain, bestLen := 0, 0, 0
						for step := 0; ; step++ {
							v, to := got.selectMove()
							if w, wt := fullScanSelect(ref, minArea, &blocked); v != w || to != wt {
								t.Fatalf("instance %d %v/%v fixed=%v pass %d step %d: selectMove (%d→%d), full scan (%d→%d)",
									hi, eng, obj, withFixed, pass, step, v, to, w, wt)
							}
							if v < 0 {
								break
							}
							cumGain += int(got.gain[int(v)*got.k+int(to)])
							got.applyMove(v, to)
							ref.applyMove(v, to)
							if cumGain > bestGain {
								bestGain, bestLen = cumGain, len(got.moveCells)
							}
						}
						for _, r := range []*refiner{got, ref} {
							for i := len(r.moveCells) - 1; i >= bestLen; i-- {
								r.undoMove(r.moveCells[i], r.moveFrom[i])
							}
						}
						if bestGain <= 0 {
							break
						}
					}
				}
			}
		}
	}
	if blocked == 0 {
		t.Fatal("the full scan never met a blocked target; the skip went untested")
	}
	t.Logf("%d blocked-target scans elided", blocked)
}
