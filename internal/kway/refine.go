package kway

import (
	"math/rand"

	"mlpart/internal/faultinject"
	"mlpart/internal/fm"
	"mlpart/internal/gainbucket"
	"mlpart/internal/hypergraph"
)

// refiner holds the per-run state of multi-way FM.
type refiner struct {
	h   *hypergraph.Hypergraph
	p   *hypergraph.Partition
	cfg Config
	rng *rand.Rand

	k      int
	bound  hypergraph.BalanceBound
	areas  []int64
	active []bool

	counts  []int32 // per net × block pin counts, flat [e*k + b]
	span    []int32 // per net: number of blocks spanned (active nets)
	gain    []int32 // per cell × target block, flat [v*k + t]
	initKey []int32 // CLIP: gain at pass start (bucket key = gain − initKey)
	locked  []bool

	// buckets[t] holds every free, non-fixed cell v with part[v] != t
	// keyed by gain(v→t).
	buckets []*gainbucket.Structure

	// move log for rollback
	moveCells []int32
	moveFrom  []int32

	scratch []int32 // reusable buffer for moveNetUpdate

	cost int // current objective over active nets
}

func newRefiner(h *hypergraph.Hypergraph, p *hypergraph.Partition, cfg Config, rng *rand.Rand) *refiner {
	n := h.NumCells()
	k := cfg.K
	r := &refiner{
		h: h, p: p, cfg: cfg, rng: rng, k: k,
		bound:  hypergraph.Balance(h, k, cfg.Tolerance),
		areas:  make([]int64, k),
		active: make([]bool, h.NumNets()),
		counts: make([]int32, h.NumNets()*k),
		span:   make([]int32, h.NumNets()),
		gain:   make([]int32, n*k),
		locked: make([]bool, n),
	}
	for e := 0; e < h.NumNets(); e++ {
		r.active[e] = cfg.MaxNetSize < 0 || h.NetSize(e) <= cfg.MaxNetSize
	}
	maxDeg := h.MaxWeightedDegree(cfg.MaxNetSize)
	bucketRange := maxDeg
	if cfg.Engine == fm.EngineCLIP {
		bucketRange = 2 * maxDeg // doubled index range, as in §II.B
		r.initKey = make([]int32, n*k)
	}
	r.buckets = make([]*gainbucket.Structure, k)
	for t := 0; t < k; t++ {
		r.buckets[t] = gainbucket.New(n, bucketRange, cfg.Order, rng)
	}
	return r
}

// key returns the bucket key of moving v to t under the engine.
func (r *refiner) key(v, t int32) int {
	i := int(v)*r.k + int(t)
	if r.cfg.Engine == fm.EngineCLIP {
		return int(r.gain[i] - r.initKey[i])
	}
	return int(r.gain[i])
}

func (r *refiner) run() Result {
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
		if r.cfg.Stop != nil && r.cfg.Stop() {
			res.Interrupted = true
			break
		}
		if r.cfg.Inject != nil && r.fireFault(&res) {
			break
		}
		costBefore := r.cost
		improved, applied, tried := r.runPass()
		r.cfg.Telemetry.RecordPass("kway-"+r.cfg.Engine.String(), res.Passes, costBefore, r.cost, tried, applied)
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

// fireFault hits the kway.refine fault site. Cancel aborts like a
// Stop hook; corrupt moves one random non-fixed cell to the next
// block without updating the incremental counts — the reported
// CutNets/SumDegrees stay truthful (recounted above), while balance
// can break, which the per-level audit catches.
func (r *refiner) fireFault(res *Result) bool {
	switch r.cfg.Inject.Fire(faultinject.SiteKwayRefine) {
	case faultinject.ActCancel:
		res.Interrupted = true
		return true
	case faultinject.ActCorrupt:
		n := r.h.NumCells()
		if n == 0 {
			break
		}
		v := r.rng.Intn(n)
		for tries := 0; tries < n; tries++ {
			if r.cfg.Fixed == nil || !r.cfg.Fixed[v] {
				r.p.Part[v] = (r.p.Part[v] + 1) % int32(r.k)
				break
			}
			v = (v + 1) % n
		}
	}
	return false
}

// computeCounts fills counts, span, areas and cost from the current
// partition.
func (r *refiner) computeCounts() {
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

// netCost maps a span to the net's objective contribution.
func (r *refiner) netCost(span int32) int {
	switch r.cfg.Objective {
	case NetCut:
		if span > 1 {
			return 1
		}
		return 0
	default: // SumOfDegrees
		return int(span - 1)
	}
}

// contrib returns net e's contribution to gain(u → t): the objective
// decrease on e if u moved from its block to t right now.
func (r *refiner) contrib(e int, u, t int32) int32 {
	from := r.p.Part[u]
	if from == t {
		return 0
	}
	cf := r.counts[e*r.k+int(from)]
	ct := r.counts[e*r.k+int(t)]
	var dSpan int32 // span(after) − span(before)
	if cf == 1 {
		dSpan--
	}
	if ct == 0 {
		dSpan++
	}
	w := r.h.NetWeight(e)
	switch r.cfg.Objective {
	case NetCut:
		before := r.span[e] > 1
		after := r.span[e]+dSpan > 1
		switch {
		case before && !after:
			return w
		case !before && after:
			return -w
		default:
			return 0
		}
	default: // SumOfDegrees: cost = w·(span−1), gain = −w·dSpan
		return -w * dSpan
	}
}

// computeGains fills gain[v][t] for all free cells from scratch.
func (r *refiner) computeGains() {
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

func (r *refiner) isFixed(v int32) bool {
	return r.cfg.Fixed != nil && r.cfg.Fixed[v]
}

// initPass rebuilds gains, buckets and locks.
func (r *refiner) initPass() {
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

// feasible reports whether moving v to block t keeps the balance.
func (r *refiner) feasible(v, t int32) bool {
	from := r.p.Part[v]
	a := r.h.Area(int(v))
	return r.areas[t]+a <= r.bound.Hi && r.areas[from]-a >= r.bound.Lo
}

// selectMove returns the best feasible (cell, target) or (-1, -1).
//
// A target block that cannot take even the smallest cell has no
// feasible move, so its bucket is skipped rather than scanned to the
// end. Random order still scans, because Iterate shuffles with the
// run's RNG and skipping would shift the stream.
func (r *refiner) selectMove() (int32, int32) {
	bestV, bestT := int32(-1), int32(-1)
	bestG := 0
	minArea := r.h.MinCellArea()
	for t := int32(0); int(t) < r.k; t++ {
		if r.areas[t]+minArea > r.bound.Hi && r.cfg.Order != gainbucket.Random {
			continue
		}
		r.buckets[t].Iterate(func(v int32, g int) bool {
			if bestV >= 0 && g <= bestG {
				return false // buckets descend; nothing better here
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

// applyMove moves v to block t, locking it and updating all state.
func (r *refiner) applyMove(v, t int32) {
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
		r.moveNetUpdate(int(e), v, from, t)
	}
	r.p.Part[v] = t
	r.moveCells = append(r.moveCells, v)
	r.moveFrom = append(r.moveFrom, from)
}

// moveNetUpdate adjusts counts/span/cost for net e as v moves
// from → to, and updates the gains of free pins by recomputing each
// pin's per-net contribution before and after.
func (r *refiner) moveNetUpdate(e int, v, from, to int32) {
	pins := r.h.Pins(e)
	// Record old contributions of free pins in a reusable buffer
	// (|e| ≤ MaxNetSize entries × k−1 targets).
	old := r.scratch[:0]
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
	// Apply the count/span/cost change.
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
	r.scratch = old[:0]
	// Recompute contributions and shift gains by the delta.
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

// runPass executes one multi-way pass with rollback to the best
// prefix; returns (realized gain, moves kept, moves tried).
func (r *refiner) runPass() (improved, applied, tried int) {
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

// undoMove reverses a logged move of v back to block orig. Gains are
// left stale; the next pass recomputes them.
func (r *refiner) undoMove(v, orig int32) {
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
