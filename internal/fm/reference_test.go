package fm

// A frozen copy of the FM/CLIP refiner as it was before the packed
// net record: two pin-count arrays and an activity flag per net, pin
// scans for the lone cell on a side, two ±w bucket updates for the
// other pin of a 2-pin net, Update as Remove+Insert, and rollback by
// undoing every rolled-back move. TestOracleRefinerMatchesReference
// runs it in lockstep with the refiner; it is test-only and must not
// be changed to follow the refiner.

import (
	"math/rand"

	"mlpart/internal/gainbucket"
	"mlpart/internal/hypergraph"
)

type refRefiner struct {
	h   *hypergraph.Hypergraph
	p   *hypergraph.Partition
	cfg Config
	rng *rand.Rand

	bound  hypergraph.BalanceBound
	areas  [2]int64
	maxDeg int

	active  []bool
	pc      [2][]int32
	gain    []int32
	initKey []int32
	locked  []bool
	buckets [2]*gainbucket.Structure

	moveCells []int32
	activeCut int

	// The pass in flight, split out of the original runPass loop so
	// the oracle can compare after every move.
	bestGain, cumGain, bestLen, sinceBest, tried int
}

func newRefRefiner(h *hypergraph.Hypergraph, p *hypergraph.Partition, cfg Config, rng *rand.Rand) *refRefiner {
	n, m := h.NumCells(), h.NumNets()
	r := &refRefiner{
		h: h, p: p, cfg: cfg, rng: rng,
		bound:   hypergraph.Balance(h, 2, cfg.Tolerance),
		active:  make([]bool, m),
		pc:      [2][]int32{make([]int32, m), make([]int32, m)},
		gain:    make([]int32, n),
		initKey: make([]int32, n),
		locked:  make([]bool, n),
	}
	for e := 0; e < m; e++ {
		r.active[e] = cfg.MaxNetSize < 0 || h.NetSize(e) <= cfg.MaxNetSize
	}
	r.maxDeg = h.MaxWeightedDegree(cfg.MaxNetSize)
	bucketRange := r.maxDeg
	if cfg.Engine == EngineCLIP {
		bucketRange = 2 * r.maxDeg
	}
	r.buckets[0] = gainbucket.New(n, bucketRange, cfg.Order, rng)
	r.buckets[1] = gainbucket.New(n, bucketRange, cfg.Order, rng)
	return r
}

func (r *refRefiner) computePinCounts() {
	for e := 0; e < r.h.NumNets(); e++ {
		r.pc[0][e] = 0
		r.pc[1][e] = 0
	}
	for v := 0; v < r.h.NumCells(); v++ {
		s := r.p.Part[v]
		for _, e := range r.h.Nets(v) {
			r.pc[s][e]++
		}
	}
	r.activeCut = 0
	for e := 0; e < r.h.NumNets(); e++ {
		if r.active[e] && r.pc[0][e] > 0 && r.pc[1][e] > 0 {
			r.activeCut += int(r.h.NetWeight(e))
		}
	}
	r.areas[0], r.areas[1] = 0, 0
	for v := 0; v < r.h.NumCells(); v++ {
		r.areas[r.p.Part[v]] += r.h.Area(v)
	}
}

func (r *refRefiner) computeGain(v int32) int32 {
	s := r.p.Part[v]
	var g int32
	for _, e := range r.h.Nets(int(v)) {
		if !r.active[e] {
			continue
		}
		w := r.h.NetWeight(int(e))
		if r.pc[s][e] == 1 {
			g += w
		}
		if r.pc[1-s][e] == 0 {
			g -= w
		}
	}
	return g
}

func (r *refRefiner) onBoundary(v int32) bool {
	for _, e := range r.h.Nets(int(v)) {
		if r.active[e] && r.pc[0][e] > 0 && r.pc[1][e] > 0 {
			return true
		}
	}
	return false
}

func (r *refRefiner) key(v int32) int {
	if r.cfg.Engine == EngineCLIP {
		return int(r.gain[v] - r.initKey[v])
	}
	return int(r.gain[v])
}

func (r *refRefiner) initPass() {
	n := r.h.NumCells()
	r.buckets[0].Clear()
	r.buckets[1].Clear()
	clear(r.locked)
	for v := int32(0); int(v) < n; v++ {
		r.gain[v] = r.computeGain(v)
	}
	if r.cfg.Engine == EngineCLIP {
		copy(r.initKey, r.gain)
	}
	for v := int32(0); int(v) < n; v++ {
		if r.cfg.Boundary && !r.onBoundary(v) {
			continue
		}
		r.buckets[r.p.Part[v]].Insert(v, int(r.gain[v]))
	}
	if r.cfg.Engine == EngineCLIP {
		r.buckets[0].ConcatenateToZero()
		r.buckets[1].ConcatenateToZero()
	}
	r.moveCells = r.moveCells[:0]
	r.bestGain, r.cumGain, r.bestLen, r.sinceBest, r.tried = 0, 0, 0, 0, 0
}

func (r *refRefiner) slack(s int32) int64 {
	in := r.bound.Hi - r.areas[1-s]
	if out := r.areas[s] - r.bound.Lo; out < in {
		return out
	}
	return in
}

func (r *refRefiner) feasible(v int32) bool {
	return r.h.Area(int(v)) <= r.slack(r.p.Part[v])
}

func (r *refRefiner) selectMove() int32 {
	cand := [2]int32{-1, -1}
	key := [2]int{0, 0}
	minArea := r.h.MinCellArea()
	for s := int32(0); s < 2; s++ {
		slack := r.slack(s)
		if slack < minArea && r.cfg.Order != gainbucket.Random {
			continue
		}
		r.buckets[s].Iterate(func(v int32, k int) bool {
			if r.h.Area(int(v)) <= slack {
				cand[s] = v
				key[s] = k
				return false
			}
			return true
		})
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

func (r *refRefiner) applyMove(v int32) {
	from := r.p.Part[v]
	to := 1 - from
	if r.buckets[from].Contains(v) {
		r.buckets[from].Remove(v)
	}
	r.locked[v] = true
	r.areas[from] -= r.h.Area(int(v))
	r.areas[to] += r.h.Area(int(v))

	for _, e := range r.h.Nets(int(v)) {
		if !r.active[e] {
			continue
		}
		w := r.h.NetWeight(int(e))
		pcF, pcT := r.pc[from], r.pc[to]
		pins := r.h.Pins(int(e))
		switch pcT[e] {
		case 0:
			for _, u := range pins {
				if !r.locked[u] {
					r.adjustGain(u, +w)
				}
			}
		case 1:
			for _, u := range pins {
				if !r.locked[u] && r.p.Part[u] == to {
					r.adjustGain(u, -w)
				}
			}
		}
		if pcT[e] == 0 {
			r.activeCut += int(w)
		}
		pcF[e]--
		pcT[e]++
		if pcF[e] == 0 {
			r.activeCut -= int(w)
		}
		switch pcF[e] {
		case 0:
			for _, u := range pins {
				if !r.locked[u] {
					r.adjustGain(u, -w)
				}
			}
		case 1:
			for _, u := range pins {
				if !r.locked[u] && r.p.Part[u] == from {
					r.adjustGain(u, +w)
				}
			}
		}
	}
	r.p.Part[v] = int32(to)
	r.moveCells = append(r.moveCells, v)
}

func (r *refRefiner) adjustGain(u int32, delta int32) {
	r.gain[u] += delta
	s := r.p.Part[u]
	if r.buckets[s].Contains(u) {
		r.buckets[s].Remove(u)
		r.buckets[s].Insert(u, r.key(u))
	} else if r.cfg.Boundary {
		r.buckets[s].Insert(u, r.key(u))
	}
}

// step is one iteration of the original runPass loop; false ends the
// pass.
func (r *refRefiner) step() bool {
	v := r.selectMove()
	if v < 0 {
		return false
	}
	r.cumGain += int(r.gain[v])
	r.tried++
	r.applyMove(v)
	if r.cumGain > r.bestGain {
		r.bestGain = r.cumGain
		r.bestLen = len(r.moveCells)
		r.sinceBest = 0
		return true
	}
	r.sinceBest++
	if r.cfg.EarlyExit && r.sinceBest > r.h.NumCells()/4+50 {
		return false
	}
	if r.cfg.Backtrack && r.bestGain-r.cumGain >= max(r.maxDeg, 2) {
		for i := len(r.moveCells) - 1; i >= r.bestLen; i-- {
			r.undoMove(r.moveCells[i])
		}
		r.moveCells = r.moveCells[:r.bestLen]
		r.cumGain = r.bestGain
		r.sinceBest = 0
		r.refreshGains()
	}
	return true
}

// endPass is the original runPass epilogue: undo the suffix after
// the best prefix.
func (r *refRefiner) endPass() (improved, applied, tried int) {
	for i := len(r.moveCells) - 1; i >= r.bestLen; i-- {
		r.undoMove(r.moveCells[i])
	}
	r.moveCells = r.moveCells[:r.bestLen]
	return r.bestGain, r.bestLen, r.tried
}

func (r *refRefiner) refreshGains() {
	r.buckets[0].Clear()
	r.buckets[1].Clear()
	for v := int32(0); int(v) < r.h.NumCells(); v++ {
		if !r.locked[v] {
			r.gain[v] = r.computeGain(v)
		}
	}
	for v := int32(0); int(v) < r.h.NumCells(); v++ {
		if r.locked[v] {
			continue
		}
		if r.cfg.Boundary && !r.onBoundary(v) {
			continue
		}
		r.buckets[r.p.Part[v]].Insert(v, r.key(v))
	}
}

func (r *refRefiner) undoMove(v int32) {
	cur := r.p.Part[v]
	orig := 1 - cur
	for _, e := range r.h.Nets(int(v)) {
		if !r.active[e] {
			continue
		}
		w := int(r.h.NetWeight(int(e)))
		if r.pc[orig][e] == 0 {
			r.activeCut += w
		}
		r.pc[cur][e]--
		r.pc[orig][e]++
		if r.pc[cur][e] == 0 {
			r.activeCut -= w
		}
	}
	r.areas[cur] -= r.h.Area(int(v))
	r.areas[orig] += r.h.Area(int(v))
	r.p.Part[v] = int32(orig)
}

func (r *refRefiner) lockedFree(e int32, s int32) (locked, free int32) {
	for _, u := range r.h.Pins(int(e)) {
		if r.p.Part[u] != s {
			continue
		}
		if r.locked[u] {
			locked++
		} else {
			free++
		}
	}
	return locked, free
}

func (r *refRefiner) levelGain(v int32, k int32) int32 {
	from := r.p.Part[v]
	to := 1 - from
	var g int32
	for _, e := range r.h.Nets(int(v)) {
		if !r.active[e] {
			continue
		}
		w := r.h.NetWeight(int(e))
		lf, ff := r.lockedFree(e, from)
		if lf == 0 && ff == k {
			g += w
		}
		lt, ft := r.lockedFree(e, to)
		if lt == 0 && ft == k-1 {
			g -= w
		}
	}
	return g
}

func (r *refRefiner) lookaheadRefine(v int32) int32 {
	s := r.p.Part[v]
	topKey := r.key(v)
	best := v
	var vec [2]int32
	bestVec := vec[:r.cfg.Lookahead-1]
	for i := range bestVec {
		bestVec[i] = r.levelGain(v, int32(i+2))
	}
	scanned := 0
	r.buckets[s].Iterate(func(u int32, key int) bool {
		if key < topKey {
			return false
		}
		scanned++
		if scanned > lookaheadScanLimit {
			return false
		}
		if u == v || !r.feasible(u) {
			return true
		}
		better := false
		for i := range bestVec {
			g := r.levelGain(u, int32(i+2))
			if g > bestVec[i] {
				better = true
			}
			if g != bestVec[i] {
				if better {
					best = u
					for j := range bestVec {
						bestVec[j] = r.levelGain(u, int32(j+2))
					}
				}
				break
			}
		}
		return true
	})
	return best
}
