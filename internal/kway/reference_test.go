package kway

// A frozen copy of the k-way refiner as it was before the closed-form
// gain updates: cell-major gain recompute through spanGain, fixed
// cells checked in every loop, selectMove through Iterate with a
// callback, moveNetUpdate building k × k delta rows with two spanGain
// calls per entry, and the reported objectives recounted from the
// partition. TestOracleRefinerMatchesReference runs it in lockstep
// with the refiner; it is test-only and must not be changed to follow
// the refiner.

import (
	"math/rand"

	"mlpart/internal/fm"
	"mlpart/internal/gainbucket"
	"mlpart/internal/hypergraph"
)

type refRefiner struct {
	h   *hypergraph.Hypergraph
	p   *hypergraph.Partition
	cfg Config
	rng *rand.Rand

	k      int
	bound  hypergraph.BalanceBound
	areas  []int64
	active []bool

	counts  []int32
	span    []int32
	gain    []int32
	initKey []int32
	locked  []bool
	buckets []*gainbucket.Structure

	moveCells []int32
	moveFrom  []int32
	delta     []int32

	cost int
}

func newRefRefiner(h *hypergraph.Hypergraph, p *hypergraph.Partition, cfg Config, rng *rand.Rand) *refRefiner {
	n, m, k := h.NumCells(), h.NumNets(), cfg.K
	r := &refRefiner{
		h: h, p: p, cfg: cfg, rng: rng, k: k,
		bound:   hypergraph.Balance(h, k, cfg.Tolerance),
		areas:   make([]int64, k),
		active:  make([]bool, m),
		counts:  make([]int32, m*k),
		span:    make([]int32, m),
		gain:    make([]int32, n*k),
		initKey: make([]int32, n*k),
		locked:  make([]bool, n),
		delta:   make([]int32, k*k),
	}
	for e := 0; e < m; e++ {
		r.active[e] = cfg.MaxNetSize < 0 || h.NetSize(e) <= cfg.MaxNetSize
	}
	maxDeg := h.MaxWeightedDegree(cfg.MaxNetSize)
	bucketRange := maxDeg
	if cfg.Engine == fm.EngineCLIP {
		bucketRange = 2 * maxDeg
	}
	for t := 0; t < k; t++ {
		r.buckets = append(r.buckets, gainbucket.New(n, bucketRange, cfg.Order, rng))
	}
	return r
}

func (r *refRefiner) key(v, t int32) int {
	i := int(v)*r.k + int(t)
	if r.cfg.Engine == fm.EngineCLIP {
		return int(r.gain[i] - r.initKey[i])
	}
	return int(r.gain[i])
}

// run is the original run loop without the Stop, fault and telemetry
// hooks.
func (r *refRefiner) run() Result {
	res := Result{
		InitialCutNets:    r.p.WeightedCut(r.h),
		InitialSumDegrees: r.p.WeightedSumOfDegrees(r.h),
	}
	r.computeCounts()
	maxPasses := r.cfg.MaxPasses
	if maxPasses == 0 {
		maxPasses = 1 << 30
	}
	for pass := 0; pass < maxPasses; pass++ {
		improved, applied, _ := r.runPass()
		res.Passes++
		res.Moves += applied
		if improved <= 0 {
			break
		}
	}
	res.CutNets = r.p.WeightedCut(r.h)
	res.SumDegrees = r.p.WeightedSumOfDegrees(r.h)
	return res
}

func (r *refRefiner) computeCounts() {
	for i := range r.counts {
		r.counts[i] = 0
	}
	for v := 0; v < r.h.NumCells(); v++ {
		b := r.p.Part[v]
		for _, e := range r.h.Nets(v) {
			r.counts[int(e)*r.k+int(b)]++
		}
	}
	r.cost = 0
	for e := 0; e < r.h.NumNets(); e++ {
		var span int32
		for b := 0; b < r.k; b++ {
			if r.counts[e*r.k+b] > 0 {
				span++
			}
		}
		r.span[e] = span
		if r.active[e] {
			r.cost += int(r.h.NetWeight(e)) * r.netCost(span)
		}
	}
	for b := range r.areas {
		r.areas[b] = 0
	}
	for v := 0; v < r.h.NumCells(); v++ {
		r.areas[r.p.Part[v]] += r.h.Area(v)
	}
}

func (r *refRefiner) netCost(span int32) int {
	switch r.cfg.Objective {
	case NetCut:
		if span > 1 {
			return 1
		}
		return 0
	default:
		return int(span - 1)
	}
}

func (r *refRefiner) contrib(e int, u, t int32) int32 {
	from := r.p.Part[u]
	if from == t {
		return 0
	}
	c := r.counts[e*r.k:]
	return refSpanGain(r.cfg.Objective, r.h.NetWeight(e), r.span[e], c[from] == 1, c[t] == 0)
}

// refSpanGain is the original spanGain method: the objective decrease
// on a net of weight w spanning span blocks when a pin moves, leaves
// reporting that it is the last in its block and enters that the
// target block holds none of the net's pins.
func refSpanGain(obj Objective, w, span int32, leaves, enters bool) int32 {
	var dSpan int32
	if leaves {
		dSpan--
	}
	if enters {
		dSpan++
	}
	switch obj {
	case NetCut:
		before := span > 1
		after := span+dSpan > 1
		switch {
		case before && !after:
			return w
		case !before && after:
			return -w
		default:
			return 0
		}
	default:
		return -w * dSpan
	}
}

func (r *refRefiner) computeGains() {
	for i := range r.gain {
		r.gain[i] = 0
	}
	for v := int32(0); int(v) < r.h.NumCells(); v++ {
		if r.isFixed(v) {
			continue
		}
		for _, e := range r.h.Nets(int(v)) {
			if !r.active[e] {
				continue
			}
			for t := int32(0); int(t) < r.k; t++ {
				if t != r.p.Part[v] {
					r.gain[int(v)*r.k+int(t)] += r.contrib(int(e), v, t)
				}
			}
		}
	}
}

func (r *refRefiner) isFixed(v int32) bool {
	return r.cfg.Fixed != nil && r.cfg.Fixed[v]
}

func (r *refRefiner) initPass() {
	n := r.h.NumCells()
	for v := 0; v < n; v++ {
		r.locked[v] = false
	}
	r.computeGains()
	for t := 0; t < r.k; t++ {
		r.buckets[t].Clear()
	}
	for v := int32(0); int(v) < n; v++ {
		if r.isFixed(v) {
			continue
		}
		for t := int32(0); int(t) < r.k; t++ {
			if t != r.p.Part[v] {
				r.buckets[t].Insert(v, int(r.gain[int(v)*r.k+int(t)]))
			}
		}
	}
	if r.cfg.Engine == fm.EngineCLIP {
		copy(r.initKey, r.gain)
		for t := 0; t < r.k; t++ {
			r.buckets[t].ConcatenateToZero()
		}
	}
	r.moveCells = r.moveCells[:0]
	r.moveFrom = r.moveFrom[:0]
}

func (r *refRefiner) feasible(v, t int32) bool {
	from := r.p.Part[v]
	a := r.h.Area(int(v))
	return r.areas[t]+a <= r.bound.Hi && r.areas[from]-a >= r.bound.Lo
}

func (r *refRefiner) selectMove() (int32, int32) {
	bestV, bestT := int32(-1), int32(-1)
	bestG := 0
	minArea := r.h.MinCellArea()
	for t := int32(0); int(t) < r.k; t++ {
		if r.areas[t]+minArea > r.bound.Hi && r.cfg.Order != gainbucket.Random {
			continue
		}
		r.buckets[t].Iterate(func(v int32, g int) bool {
			if bestV >= 0 && g <= bestG {
				return false
			}
			if r.feasible(v, t) {
				bestV, bestT, bestG = v, t, g
				return false
			}
			return true
		})
	}
	return bestV, bestT
}

func (r *refRefiner) applyMove(v, t int32) {
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
		if !r.active[e] {
			continue
		}
		r.moveNetUpdate(int(e), from, t)
	}
	r.p.Part[v] = t
	r.moveCells = append(r.moveCells, v)
	r.moveFrom = append(r.moveFrom, from)
}

func (r *refRefiner) moveNetUpdate(e int, from, to int32) {
	k := r.k
	c := r.counts[e*k : e*k+k]
	cf, ct := c[from], c[to]
	oldSpan := r.span[e]
	c[from]--
	c[to]++
	span := oldSpan
	if cf == 1 {
		span--
	}
	if ct == 0 {
		span++
	}
	r.span[e] = span
	w := r.h.NetWeight(e)
	r.cost += int(w) * (r.netCost(span) - r.netCost(oldSpan))
	if cf > 2 && ct > 1 {
		return
	}
	before := func(b int32) int32 {
		switch b {
		case from:
			return cf
		case to:
			return ct
		}
		return c[b]
	}
	var done uint64
	for _, u := range r.h.Pins(e) {
		if r.locked[u] || r.isFixed(u) {
			continue
		}
		b := r.p.Part[u]
		row := r.delta[int(b)*k : int(b)*k+k]
		if done&(1<<uint(b)) == 0 {
			done |= 1 << uint(b)
			leftBefore, leftAfter := before(b) == 1, c[b] == 1
			for t := int32(0); int(t) < k; t++ {
				if t == b {
					row[t] = 0
					continue
				}
				row[t] = refSpanGain(r.cfg.Objective, w, span, leftAfter, c[t] == 0) -
					refSpanGain(r.cfg.Objective, w, oldSpan, leftBefore, before(t) == 0)
			}
		}
		for t, d := range row {
			if d != 0 {
				r.gain[int(u)*k+t] += d
				r.buckets[t].Update(u, r.key(u, int32(t)))
			}
		}
	}
}

func (r *refRefiner) runPass() (improved, applied, tried int) {
	r.initPass()
	bestGain, cumGain := 0, 0
	bestLen := 0
	for {
		v, t := r.selectMove()
		if v < 0 {
			break
		}
		cumGain += int(r.gain[int(v)*r.k+int(t)])
		r.applyMove(v, t)
		if cumGain > bestGain {
			bestGain = cumGain
			bestLen = len(r.moveCells)
		}
	}
	tried = len(r.moveCells)
	for i := len(r.moveCells) - 1; i >= bestLen; i-- {
		r.undoMove(r.moveCells[i], r.moveFrom[i])
	}
	r.moveCells = r.moveCells[:bestLen]
	r.moveFrom = r.moveFrom[:bestLen]
	return bestGain, bestLen, tried
}

func (r *refRefiner) undoMove(v, orig int32) {
	cur := r.p.Part[v]
	for _, e := range r.h.Nets(int(v)) {
		if !r.active[e] {
			continue
		}
		oldSpan := r.span[e]
		r.counts[int(e)*r.k+int(cur)]--
		r.counts[int(e)*r.k+int(orig)]++
		var d int32
		if r.counts[int(e)*r.k+int(cur)] == 0 {
			d--
		}
		if r.counts[int(e)*r.k+int(orig)] == 1 {
			d++
		}
		r.span[e] = oldSpan + d
		r.cost += int(r.h.NetWeight(int(e))) * (r.netCost(r.span[e]) - r.netCost(oldSpan))
	}
	r.areas[cur] -= r.h.Area(int(v))
	r.areas[orig] += r.h.Area(int(v))
	r.p.Part[v] = orig
}
