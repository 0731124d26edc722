package fm

// Differential "Oracle" tests for the workspace-reusing refinement
// paths: a Config.WS threaded through many runs must change nothing —
// not the RNG stream, not a single block assignment — and every
// reported cut must survive internal/oracle's from-scratch recount.

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"mlpart/internal/coarsen"
	"mlpart/internal/gainbucket"
	"mlpart/internal/hypergraph"
	"mlpart/internal/netgen"
	"mlpart/internal/oracle"
)

// TestOracleWorkspaceReuseBitIdentical runs every engine × bucket
// order over a sequence of random instances twice: once allocating
// per run (WS nil), once reusing a single Workspace across the whole
// sequence (so every buffer arrives dirty from the previous instance,
// including instances of different sizes). The partitions and results
// must be bit-identical, and the cuts must match the oracle.
func TestOracleWorkspaceReuseBitIdentical(t *testing.T) {
	engines := []Engine{EngineFM, EngineCLIP, EnginePROP, EngineCLIPPROP}
	orders := []gainbucket.Order{gainbucket.LIFO, gainbucket.FIFO, gainbucket.Random}
	for _, eng := range engines {
		for _, order := range orders {
			ws := &Workspace{}
			for seed := int64(0); seed < 6; seed++ {
				rng := rand.New(rand.NewSource(900 + seed))
				// Alternate sizes so reuse shrinks and regrows buffers.
				n := 80 + int(seed%3)*70
				h := randomH(rng, n, n+20, 6)

				cfgFresh := Config{Engine: eng, Order: order}
				pFresh, resFresh, err := Partition(h, nil, cfgFresh, rand.New(rand.NewSource(seed)))
				if err != nil {
					t.Fatal(err)
				}

				cfgWS := Config{Engine: eng, Order: order, WS: ws}
				pWS, resWS, err := Partition(h, nil, cfgWS, rand.New(rand.NewSource(seed)))
				if err != nil {
					t.Fatal(err)
				}

				if resFresh != resWS {
					t.Fatalf("engine %v order %v seed %d: results diverge: %+v vs %+v",
						eng, order, seed, resFresh, resWS)
				}
				for v := range pFresh.Part {
					if pFresh.Part[v] != pWS.Part[v] {
						t.Fatalf("engine %v order %v seed %d: partitions diverge at cell %d",
							eng, order, seed, v)
					}
				}
				if want := oracle.WeightedCut(h, pWS); resWS.Cut != want {
					t.Fatalf("engine %v order %v seed %d: reported cut %d, oracle %d",
						eng, order, seed, resWS.Cut, want)
				}
			}
		}
	}
}

// TestOracleRebalanceRefineMatchesPartition pins the contract that
// lets the level driver refine in place: rebalancing a projected
// solution when it violates the bound, then calling Refine on it, is
// exactly Partition with that initial solution — same result, same RNG
// consumption — and its cut survives the oracle recount. The initial
// solution is unbalanced, so both sides rebalance.
func TestOracleRebalanceRefineMatchesPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	h := randomH(rng, 150, 170, 5)
	init := hypergraph.NewPartition(h.NumCells(), 2)
	for v := 0; v < h.NumCells()/10; v++ {
		init.Part[v] = 1
	}
	orig := init.Clone()
	bound := hypergraph.Balance(h, 2, 0.1)
	if init.IsBalanced(h, bound) {
		t.Fatal("initial solution is balanced; the rebalance step goes untested")
	}

	pVia, resVia, err := Partition(h, init, Config{Engine: EngineCLIP}, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	inPlace := init.Clone()
	rngIn := rand.New(rand.NewSource(2))
	inPlace.Rebalance(h, bound, rngIn)
	resIn, err := Refine(h, inPlace, Config{Engine: EngineCLIP}, rngIn)
	if err != nil {
		t.Fatal(err)
	}
	if resVia != resIn {
		t.Fatalf("results diverge: %+v vs %+v", resVia, resIn)
	}
	for v := range pVia.Part {
		if pVia.Part[v] != inPlace.Part[v] {
			t.Fatalf("partitions diverge at cell %d", v)
		}
	}
	if want := oracle.WeightedCut(h, inPlace); resIn.Cut != want {
		t.Fatalf("reported cut %d, oracle %d", resIn.Cut, want)
	}
	// Partition must not have mutated the caller's initial solution.
	for v := range init.Part {
		if init.Part[v] != orig.Part[v] {
			t.Fatal("Partition mutated the caller's initial partition")
		}
	}
}

// areaH is randomH with cell areas drawn from [minArea, 5]; a zero
// minimum keeps zero-area cells in play, whose presence disables the
// blocked-side skip (no side is ever too full for a zero-area cell).
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
		coarse, err := hypergraph.InduceInto(h, cl, nil, &hypergraph.Hypergraph{})
		if err != nil {
			t.Fatal(err)
		}
		levels = append(levels, coarse)
	}
	return levels
}

// fullScanSelect is selectMove as it was before the blocked-side
// skip: both sides' buckets are scanned until a feasible cell turns
// up, however full the other side is. blocked counts the scans that
// visited cells of a side no cell can leave — the scans selectMove
// elides.
func fullScanSelect(r *refiner, minArea int64, blocked *int) int32 {
	cand := [2]int32{-1, -1}
	key := [2]int{0, 0}
	for s := 0; s < 2; s++ {
		visited := 0
		r.buckets[s].Iterate(func(v int32, k int) bool {
			visited++
			a := r.h.Area(int(v))
			if r.areas[1-s]+a <= r.bound.Hi && r.areas[s]-a >= r.bound.Lo {
				cand[s] = v
				key[s] = k
				return false
			}
			return true
		})
		if visited > 0 && (r.areas[1-s]+minArea > r.bound.Hi || r.areas[s]-minArea < r.bound.Lo) {
			*blocked++
		}
	}
	var v int32
	switch {
	case cand[0] < 0 && cand[1] < 0:
		return -1
	case cand[0] < 0:
		v = cand[1]
	case cand[1] < 0:
		v = cand[0]
	case key[0] > key[1]:
		v = cand[0]
	case key[1] > key[0]:
		v = cand[1]
	case r.areas[0] >= r.areas[1]:
		v = cand[0]
	default:
		v = cand[1]
	}
	if r.cfg.Lookahead >= 2 {
		v = r.lookaheadRefine(v)
	}
	return v
}

// TestOracleSelectMoveMatchesFullScan runs complete passes of two
// refiners in lockstep from the same partition and seed: one selects
// with selectMove, the other with the full-scan reference. Every
// selection must agree, so the moves, cuts and RNG draws are those of
// the full scan.
func TestOracleSelectMoveMatchesFullScan(t *testing.T) {
	var instances []*hypergraph.Hypergraph
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 4; i++ {
		instances = append(instances, areaH(rng, 120+40*i, 150+40*i, 5, int64(i%2)))
	}
	instances = append(instances, coarseLevels(t, 600, 5)...)
	configs := []Config{
		{Engine: EngineFM, Order: gainbucket.LIFO},
		{Engine: EngineFM, Order: gainbucket.FIFO},
		{Engine: EngineFM, Order: gainbucket.Random},
		{Engine: EngineCLIP, Order: gainbucket.LIFO},
		{Engine: EngineCLIP, Order: gainbucket.FIFO},
		{Engine: EngineCLIP, Order: gainbucket.Random},
		{Engine: EngineFM, Boundary: true},
		{Engine: EngineCLIP, Lookahead: 3},
	}
	blocked := 0
	for hi, h := range instances {
		var minArea int64 = 1 << 62
		for v := 0; v < h.NumCells(); v++ {
			if a := h.Area(v); a < minArea {
				minArea = a
			}
		}
		for ci, cfg := range configs {
			for _, tol := range []float64{0.02, 0.1} {
				cfg.Tolerance = tol
				cfg, err := cfg.Normalize()
				if err != nil {
					t.Fatal(err)
				}
				seed := int64(100*hi + ci)
				init := hypergraph.RandomPartition(h, 2, tol, rand.New(rand.NewSource(seed)))
				got := newRefiner(h, init.Clone(), cfg, rand.New(rand.NewSource(seed)))
				ref := newRefiner(h, init.Clone(), cfg, rand.New(rand.NewSource(seed)))
				got.countPins()
				ref.countPins()
				for pass := 0; pass < 10; pass++ {
					got.InitPass()
					ref.InitPass()
					bestGain, cumGain, bestLen := 0, 0, 0
					for step := 0; ; step++ {
						v := got.selectMove()
						if w := fullScanSelect(ref, minArea, &blocked); v != w {
							t.Fatalf("instance %d %v/%v boundary=%v lookahead=%d r=%v pass %d step %d: selectMove %d, full scan %d",
								hi, cfg.Engine, cfg.Order, cfg.Boundary, cfg.Lookahead, tol, pass, step, v, w)
						}
						if v < 0 {
							break
						}
						cumGain += int(got.gain[v])
						got.applyMove(v)
						ref.applyMove(v)
						if cumGain > bestGain {
							bestGain, bestLen = cumGain, len(got.moveCells)
						}
					}
					for _, r := range []*refiner{got, ref} {
						for i := len(r.moveCells) - 1; i >= bestLen; i-- {
							r.undoMove(r.moveCells[i])
						}
					}
					if bestGain <= 0 {
						break
					}
				}
			}
		}
	}
	if blocked == 0 {
		t.Fatal("the full scan never met a blocked side; the skip went untested")
	}
	t.Logf("%d blocked-side scans elided", blocked)
}

// lockstepH returns a random instance with cell areas in [minArea, 5],
// net weights in [1, maxWeight] and nets of 2 to maxPins pins, plus
// one net over the first big cells when big > 0.
func lockstepH(rng *rand.Rand, n, m, maxPins int, minArea int64, maxWeight int32, big int) *hypergraph.Hypergraph {
	b := hypergraph.NewBuilder(n)
	for v := 0; v < n; v++ {
		b.SetArea(v, minArea+rng.Int63n(6-minArea))
	}
	for e := 0; e < m; e++ {
		pins := make([]int, 2+rng.Intn(maxPins-1))
		for i := range pins {
			pins[i] = rng.Intn(n)
		}
		b.AddWeightedNet(1+rng.Int31n(maxWeight), pins...)
	}
	if big > 0 {
		pins := make([]int, big)
		for i := range pins {
			pins[i] = i
		}
		b.AddNet(pins...)
	}
	return b.MustBuild()
}

// TestOracleRefinerMatchesReference runs whole passes of the refiner
// in lockstep with refRefiner, the frozen copy of the engine before
// the packed net record (reference_test.go), from the same partition
// and seed. After every move the gains, the bucket contents in
// Iterate order, the partition, the side areas and the active cut
// must agree; after every pass, the rollback's partition and the
// pass's results must too. The refiner reuses one dirty Workspace
// throughout, the reference allocates per run.
func TestOracleRefinerMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	instances := []*hypergraph.Hypergraph{
		lockstepH(rng, 90, 110, 5, 0, 1, 0),
		lockstepH(rng, 110, 130, 4, 1, 1, 0),
		lockstepH(rng, 100, 120, 6, 0, 4, 0),
		lockstepH(rng, 215, 160, 4, 1, 1, 205),
	}
	levels := coarseLevels(t, 300, 13)
	merged, err := hypergraph.MergeParallelNets(levels[2])
	if err != nil {
		t.Fatal(err)
	}
	if !merged.Weighted() {
		t.Fatal("merged level has no weighted nets")
	}
	instances = append(instances, levels[1], merged)

	variants := []Config{
		{},
		{Boundary: true},
		{Backtrack: true},
		{Lookahead: 3},
		{Lookahead: 3, Backtrack: true},
		{EarlyExit: true},
		{Boundary: true, Backtrack: true},
	}
	maxNets := []int{-1, 200, 3}
	tolerances := []float64{0.1, 0.02}
	ws := &Workspace{}
	var gotB, refB [][3]int
	runs, moves := 0, 0
	for hi, h := range instances {
		for _, eng := range []Engine{EngineFM, EngineCLIP} {
			for oi, order := range []gainbucket.Order{gainbucket.LIFO, gainbucket.FIFO, gainbucket.Random} {
				for vi, variant := range variants {
					cfg := variant
					cfg.Engine, cfg.Order = eng, order
					cfg.MaxNetSize = maxNets[(hi+oi+vi)%len(maxNets)]
					cfg.Tolerance = tolerances[(hi+vi)%len(tolerances)]
					cfg, err := cfg.Normalize()
					if err != nil {
						t.Fatal(err)
					}
					name := fmt.Sprintf("instance %d %v/%v boundary=%v backtrack=%v lookahead=%d earlyexit=%v maxnet=%d r=%v",
						hi, eng, order, cfg.Boundary, cfg.Backtrack, cfg.Lookahead, cfg.EarlyExit, cfg.MaxNetSize, cfg.Tolerance)
					seed := int64(1000*hi + 100*int(eng) + 10*oi + vi)
					init := hypergraph.RandomPartition(h, 2, cfg.Tolerance, rand.New(rand.NewSource(seed)))
					ref := newRefRefiner(h, init.Clone(), cfg, rand.New(rand.NewSource(seed)))
					cfg.WS = ws
					got := newRefiner(h, init.Clone(), cfg, rand.New(rand.NewSource(seed)))
					d := cfg.passes(h.NumCells(), got.maxDeg)
					ref.computePinCounts()
					if cut, want := got.countPins(), init.WeightedCut(h); cut != want {
						t.Fatalf("%s: initial cut %d, recount %d", name, cut, want)
					}
					same := func(when string) {
						t.Helper()
						if !slices.Equal(got.p.Part, ref.p.Part) {
							t.Fatalf("%s %s: partitions diverge", name, when)
						}
						if got.activeCut != ref.activeCut || got.areas != ref.areas {
							t.Fatalf("%s %s: active cut %d areas %v, reference %d %v",
								name, when, got.activeCut, got.areas, ref.activeCut, ref.areas)
						}
					}
					same("after the count")
					runs++
					for pass := 0; pass < 8; pass++ {
						d.begin(got)
						ref.initPass()
						for step := 0; ; step++ {
							when := fmt.Sprintf("pass %d step %d", pass, step)
							more := d.step(got)
							if refMore := ref.step(); more != refMore {
								t.Fatalf("%s %s: step %v, reference %v", name, when, more, refMore)
							}
							same(when)
							if !slices.Equal(got.gain[:h.NumCells()], ref.gain) {
								t.Fatalf("%s %s: gains diverge", name, when)
							}
							gotB = walkBuckets(gotB[:0], got.buckets)
							refB = walkBuckets(refB[:0], ref.buckets)
							if !slices.Equal(gotB, refB) {
								t.Fatalf("%s %s: bucket contents diverge", name, when)
							}
							if !more {
								break
							}
							moves++
						}
						improved, applied, tried := d.end(got)
						rImproved, rApplied, rTried := ref.endPass()
						if improved != rImproved || applied != rApplied || tried != rTried {
							t.Fatalf("%s pass %d: result (%d, %d, %d), reference (%d, %d, %d)",
								name, pass, improved, applied, tried, rImproved, rApplied, rTried)
						}
						same(fmt.Sprintf("pass %d rollback", pass))
						if improved <= 0 {
							break
						}
					}
				}
			}
		}
	}
	t.Logf("%d runs, %d moves in lockstep", runs, moves)
}

// walkBuckets appends both sides' bucket contents in Iterate order to
// out as (side, cell, key) triples.
func walkBuckets(out [][3]int, buckets [2]*gainbucket.Structure) [][3]int {
	for s, b := range buckets {
		b.Iterate(func(v int32, k int) bool {
			out = append(out, [3]int{s, int(v), k})
			return true
		})
	}
	return out
}
