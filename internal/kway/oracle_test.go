package kway

// Differential "Oracle" tests: the blocked-target skip in selectMove
// must select exactly the moves of the full bucket scan it replaced,
// the critical-only moveNetUpdate must leave exactly the gains and
// bucket order of a full recompute, and Workspace reuse must not
// change any result.

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"mlpart/internal/coarsen"
	"mlpart/internal/fm"
	"mlpart/internal/gainbucket"
	"mlpart/internal/hypergraph"
	"mlpart/internal/netgen"
	"mlpart/internal/oracle"
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
		coarse, err := hypergraph.InduceInto(h, cl, nil, &hypergraph.Hypergraph{})
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

// recomputeNetUpdate is moveNetUpdate before the critical-only update:
// every free pin's contribution to every target is recomputed before
// and after the count change, and each nonzero difference is applied
// in pin order × ascending target.
func recomputeNetUpdate(r *refiner, e int, from, to int32) {
	pins := r.h.Pins(e)
	var old []int32
	for _, u := range pins {
		if r.locked[u] || r.isFixed(u) {
			continue
		}
		for t := int32(0); int(t) < r.k; t++ {
			if t != r.p.Part[u] {
				old = append(old, r.contrib(e, u, t))
			}
		}
	}
	oldSpan := r.span[e]
	r.counts[e*r.k+int(from)]--
	r.counts[e*r.k+int(to)]++
	var span int32
	if r.counts[e*r.k+int(from)] == 0 {
		span--
	}
	if r.counts[e*r.k+int(to)] == 1 {
		span++
	}
	r.span[e] = oldSpan + span
	r.cost += int(r.h.NetWeight(e)) * (r.netCost(r.span[e]) - r.netCost(oldSpan))
	i := 0
	for _, u := range pins {
		if r.locked[u] || r.isFixed(u) {
			continue
		}
		for t := int32(0); int(t) < r.k; t++ {
			if t != r.p.Part[u] {
				delta := r.contrib(e, u, t) - old[i]
				i++
				if delta != 0 {
					r.gain[int(u)*r.k+int(t)] += delta
					r.buckets[t].Update(u, r.key(u, t))
				}
			}
		}
	}
}

// recomputeApplyMove is applyMove on recomputeNetUpdate.
func recomputeApplyMove(r *refiner, v, t int32) {
	from := r.p.Part[v]
	r.locked[v] = true
	for b := int32(0); int(b) < r.k; b++ {
		if b != from && r.buckets[b].Contains(v) {
			r.buckets[b].Remove(v)
		}
	}
	r.areas[from] -= r.h.Area(int(v))
	r.areas[t] += r.h.Area(int(v))
	for _, e := range r.h.Nets(int(v)) {
		if r.active[e] {
			recomputeNetUpdate(r, int(e), from, t)
		}
	}
	r.p.Part[v] = t
	r.moveCells = append(r.moveCells, v)
	r.moveFrom = append(r.moveFrom, from)
}

// bucketContents appends every target bucket to out in Iterate order
// as (target, cell, key) triples.
func bucketContents(out [][3]int, r *refiner) [][3]int {
	for t := 0; t < r.k; t++ {
		r.buckets[t].Iterate(func(v int32, g int) bool {
			out = append(out, [3]int{t, int(v), g})
			return true
		})
	}
	return out
}

// TestOracleMoveNetUpdateMatchesRecompute runs complete passes of two
// refiners in lockstep from the same partition and seed: one applies
// moves through moveNetUpdate, the other through the recompute-all
// reference. After every move the gain tables, the objective and the
// bucket contents in Iterate order must agree.
func TestOracleMoveNetUpdateMatchesRecompute(t *testing.T) {
	var instances []*hypergraph.Hypergraph
	rng := rand.New(rand.NewSource(53))
	for i := 0; i < 2; i++ {
		instances = append(instances, areaH(rng, 40+30*i, 50+30*i, 8, int64(i)))
	}
	levels := coarseLevels(t, 300, 11)
	merged, err := hypergraph.MergeParallelNets(levels[2])
	if err != nil {
		t.Fatal(err)
	}
	instances = append(instances, merged, levels[3])
	skipped, critical := 0, 0
	var gotB, refB [][3]int
	orders := []gainbucket.Order{gainbucket.LIFO, gainbucket.FIFO, gainbucket.Random}
	for hi, h := range instances {
		for _, k := range []int{2, 3, 4, 8} {
			for _, eng := range []fm.Engine{fm.EngineFM, fm.EngineCLIP} {
				for _, obj := range []Objective{NetCut, SumOfDegrees} {
					for _, order := range orders {
						for _, withFixed := range []bool{false, true} {
							name := fmt.Sprintf("instance %d K=%d %v/%v/%v fixed=%v", hi, k, eng, obj, order, withFixed)
							seed := int64(1000*hi + 100*k + 10*int(eng) + 3*int(obj) + int(order))
							prng := rand.New(rand.NewSource(seed))
							init := hypergraph.RandomPartition(h, k, 0.1, prng)
							cfg := Config{K: k, Engine: eng, Objective: obj, Order: order}
							if withFixed {
								cfg.Fixed = make([]bool, h.NumCells())
								for v := range cfg.Fixed {
									cfg.Fixed[v] = prng.Intn(8) == 0
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
							for pass := 0; pass < 2; pass++ {
								got.initPass()
								ref.initPass()
								bestGain, cumGain, bestLen := 0, 0, 0
								for step := 0; ; step++ {
									v, to := got.selectMove()
									if w, wt := ref.selectMove(); v != w || to != wt {
										t.Fatalf("%s pass %d step %d: selected (%d→%d), reference (%d→%d)", name, pass, step, v, to, w, wt)
									}
									if v < 0 {
										break
									}
									from := got.p.Part[v]
									for _, e := range h.Nets(int(v)) {
										if !got.active[e] {
											continue
										}
										if got.counts[int(e)*k+int(from)] > 2 && got.counts[int(e)*k+int(to)] > 1 {
											skipped++
										} else {
											critical++
										}
									}
									cumGain += int(got.gain[int(v)*k+int(to)])
									got.applyMove(v, to)
									recomputeApplyMove(ref, v, to)
									if got.cost != ref.cost {
										t.Fatalf("%s pass %d step %d: cost %d, reference %d", name, pass, step, got.cost, ref.cost)
									}
									for i := range got.gain {
										if got.gain[i] != ref.gain[i] {
											t.Fatalf("%s pass %d step %d: gain[cell %d → %d] = %d, reference %d",
												name, pass, step, i/k, i%k, got.gain[i], ref.gain[i])
										}
									}
									gotB, refB = bucketContents(gotB[:0], got), bucketContents(refB[:0], ref)
									if !reflect.DeepEqual(gotB, refB) {
										t.Fatalf("%s pass %d step %d: bucket contents diverge", name, pass, step)
									}
									if cumGain > bestGain {
										bestGain, bestLen = cumGain, len(got.moveCells)
									}
								}
								for _, r := range []*refiner{got, ref} {
									for i := len(r.moveCells) - 1; i >= bestLen; i-- {
										r.undoMove(r.moveCells[i], r.moveFrom[i])
									}
									r.moveCells = r.moveCells[:bestLen]
									r.moveFrom = r.moveFrom[:bestLen]
								}
								if bestGain <= 0 {
									break
								}
							}
						}
					}
				}
			}
		}
	}
	if skipped == 0 || critical == 0 {
		t.Fatalf("net updates: %d skipped as non-critical, %d critical; both paths must be exercised", skipped, critical)
	}
	t.Logf("net updates: %d skipped as non-critical, %d critical", skipped, critical)
}

// TestOracleWorkspaceReuseBitIdentical runs a sequence of instances of
// different sizes and K through one Workspace per engine × objective ×
// bucket order, so every buffer arrives dirty from the previous run
// and must shrink and regrow. Partitions and results must equal the
// per-run allocating path (WS nil) bit for bit, and the reported
// objectives must match the oracle recount.
func TestOracleWorkspaceReuseBitIdentical(t *testing.T) {
	steps := []struct {
		cells, k int
		fixed    bool
	}{{150, 4, false}, {260, 8, true}, {90, 2, false}, {200, 4, true}, {120, 4, false}}
	orders := []gainbucket.Order{gainbucket.LIFO, gainbucket.FIFO, gainbucket.Random}
	for _, eng := range []fm.Engine{fm.EngineFM, fm.EngineCLIP} {
		for _, obj := range []Objective{NetCut, SumOfDegrees} {
			for _, order := range orders {
				ws := &Workspace{}
				for i, st := range steps {
					name := fmt.Sprintf("%v/%v/%v step %d (n=%d K=%d fixed=%v)", eng, obj, order, i, st.cells, st.k, st.fixed)
					seed := int64(700 + i)
					h := areaH(rand.New(rand.NewSource(seed)), st.cells, st.cells+30, 6, 1)
					cfg := Config{K: st.k, Engine: eng, Objective: obj, Order: order}
					var init *hypergraph.Partition
					if st.fixed {
						prng := rand.New(rand.NewSource(seed + 1))
						init = hypergraph.RandomPartition(h, st.k, 0.1, prng)
						cfg.Fixed = make([]bool, st.cells)
						for v := range cfg.Fixed {
							cfg.Fixed[v] = prng.Intn(10) == 0
						}
					}
					pFresh, resFresh, err := Partition(h, init, cfg, rand.New(rand.NewSource(seed)))
					if err != nil {
						t.Fatal(err)
					}
					cfg.WS = ws
					pWS, resWS, err := Partition(h, init, cfg, rand.New(rand.NewSource(seed)))
					if err != nil {
						t.Fatal(err)
					}
					if resFresh != resWS {
						t.Fatalf("%s: results diverge: %+v vs %+v", name, resFresh, resWS)
					}
					if !reflect.DeepEqual(pFresh, pWS) {
						t.Fatalf("%s: partitions diverge", name)
					}
					if want := oracle.WeightedCut(h, pWS); resWS.CutNets != want {
						t.Fatalf("%s: reported cut %d, oracle %d", name, resWS.CutNets, want)
					}
					if want := oracle.WeightedSumOfDegrees(h, pWS); resWS.SumDegrees != want {
						t.Fatalf("%s: reported sum of degrees %d, oracle %d", name, resWS.SumDegrees, want)
					}
				}
			}
		}
	}
}
