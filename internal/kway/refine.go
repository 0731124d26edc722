package kway

import (
	"math/rand"

	"mlpart/internal/faultinject"
	"mlpart/internal/fm"
	"mlpart/internal/gainbucket"
	"mlpart/internal/hypergraph"
)

// refiner holds the per-run state of multi-way FM; its slices alias
// the Workspace's buffers.
type refiner struct {
	h   *hypergraph.Hypergraph
	p   *hypergraph.Partition
	cfg Config
	rng *rand.Rand
	ws  *Workspace

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

	delta []int32 // moveNetUpdate's k × k rows, flat [b*k + t]

	cost int // current objective over active nets
}

func newRefiner(h *hypergraph.Hypergraph, p *hypergraph.Partition, cfg Config, rng *rand.Rand) *refiner {
	n := h.NumCells()
	k := cfg.K
	ws := cfg.grab()
	ws.size(cfg, n, h.NumNets())
	r := &refiner{
		h: h, p: p, cfg: cfg, rng: rng, ws: ws, k: k,
		bound:     hypergraph.Balance(h, k, cfg.Tolerance),
		areas:     ws.areas,
		active:    ws.active,
		counts:    ws.counts,
		span:      ws.span,
		gain:      ws.gain,
		locked:    ws.locked,
		moveCells: ws.moveCells[:0],
		moveFrom:  ws.moveFrom[:0],
		delta:     ws.delta,
	}
	for e := 0; e < h.NumNets(); e++ {
		r.active[e] = cfg.MaxNetSize < 0 || h.NetSize(e) <= cfg.MaxNetSize
	}
	maxDeg := h.MaxWeightedDegree(cfg.MaxNetSize)
	bucketRange := maxDeg
	if cfg.Engine == fm.EngineCLIP {
		bucketRange = 2 * maxDeg // doubled index range, as in §II.B
		r.initKey = ws.initKey
	}
	for t := 0; t < k; t++ {
		ws.bucket(t, n, bucketRange, cfg.Order, rng)
	}
	r.buckets = ws.buckets[:k]
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
		r.cfg.Telemetry.RecordPass(passLabel(r.cfg.Engine), res.Passes, costBefore, r.cost, tried, applied)
		res.Passes++
		res.Moves += applied
		if improved <= 0 {
			break
		}
	}
	res.CutNets = r.p.WeightedCut(r.h)
	res.SumDegrees = r.p.WeightedSumOfDegrees(r.h)
	// Hand any move-log growth back to the workspace (appends stay
	// within the pre-grown capacity today, but do not rely on it).
	r.ws.moveCells = r.moveCells
	r.ws.moveFrom = r.moveFrom
	return res
}

// passLabel is the telemetry engine name of a k-way pass: a constant,
// so recording a pass allocates nothing.
func passLabel(e fm.Engine) string {
	if e == fm.EngineCLIP {
		return "kway-CLIP"
	}
	return "kway-FM"
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
	c := r.counts[e*r.k:]
	return r.spanGain(r.h.NetWeight(e), r.span[e], c[from] == 1, c[t] == 0)
}

// spanGain is the objective decrease on a net of weight w spanning
// span blocks when one of its pins moves to another block: leaves
// reports that the pin is the last one in its block, enters that the
// target block holds none of the net's pins. contrib, and hence every
// gain, depends on a net's state only through these three inputs.
func (r *refiner) spanGain(w, span int32, leaves, enters bool) int32 {
	var dSpan int32 // span(after) − span(before)
	if leaves {
		dSpan--
	}
	if enters {
		dSpan++
	}
	switch r.cfg.Objective {
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
		r.moveNetUpdate(int(e), from, t)
	}
	r.p.Part[v] = t
	r.moveCells = append(r.moveCells, v)
	r.moveFrom = append(r.moveFrom, from)
}

// moveNetUpdate adjusts counts/span/cost for net e as one of its pins
// moves from → to, and shifts the gains of e's free pins by the change
// in e's contribution.
//
// contrib(e, u, t) reads only span(e), [count(Part[u]) == 1] and
// [count(t) == 0] (spanGain), and the move changes only count(from)
// and count(to). Unless count(from) was 1 or 2 or count(to) was 0 or
// 1, none of those inputs changes for any (u, t) and no gain moves.
// Otherwise the change depends on u only through b = Part[u], so it
// is computed once per block row delta[b][t], lazily, and applied in
// pin order × ascending t where nonzero — the same Update sequence as
// recomputing every pin's contribution before and after, which keeps
// the bucket order (and a Random order's RNG stream) unchanged.
func (r *refiner) moveNetUpdate(e int, from, to int32) {
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
	// before is a block's pin count ahead of the move.
	before := func(b int32) int32 {
		switch b {
		case from:
			return cf
		case to:
			return ct
		}
		return c[b]
	}
	var done uint64 // K ≤ 64: bit b marks delta row b as computed
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
				row[t] = r.spanGain(w, span, leftAfter, c[t] == 0) - r.spanGain(w, oldSpan, leftBefore, before(t) == 0)
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
