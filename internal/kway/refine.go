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
	initKey []int32 // CLIP: gain at pass start (bucket key = gain − initKey); nil under FM
	locked  []bool  // moved this pass, or fixed

	// buckets[t] holds every free, non-fixed cell v with part[v] != t
	// keyed by gain(v→t).
	buckets []*gainbucket.Structure

	// move log for rollback
	moveCells []int32
	moveFrom  []int32

	cost int // current objective over active nets

	// stale reports that a corrupt fault moved a cell behind the
	// counts' back, so the spans no longer describe the partition.
	stale bool
}

func newRefiner(h *hypergraph.Hypergraph, p *hypergraph.Partition, cfg Config, rng *rand.Rand) *refiner {
	n := h.NumCells()
	k := cfg.K
	ws := cfg.WS
	if ws == nil {
		ws = &Workspace{}
	}
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

func (r *refiner) run() Result {
	r.computeCounts()
	var res Result
	res.InitialCutNets, res.InitialSumDegrees = r.objectives()
	d := fm.Passes{
		MaxPasses: r.cfg.MaxPasses,
		Stop:      r.cfg.Stop,
		Inject:    r.cfg.Inject,
		Site:      faultinject.SiteKwayRefine,
		Telemetry: r.cfg.Telemetry,
		Label:     "kway-FM",
	}
	if r.initKey != nil {
		d.Label = "kway-CLIP"
	}
	t := d.Run(r)
	res.Passes, res.Moves, res.Interrupted = t.Passes, t.Moves, t.Interrupted
	res.CutNets, res.SumDegrees = r.objectives()
	// Hand any move-log growth back to the workspace (appends stay
	// within the pre-grown capacity today, but do not rely on it).
	r.ws.moveCells = r.moveCells
	r.ws.moveFrom = r.moveFrom
	return res
}

// objectives returns the weighted cut and sum of degrees over all
// nets. Active nets read the span the moves maintain; a net over
// MaxNetSize is left out of the moves, so its span is recounted from
// the partition, as is every net's once a corrupt fault made the
// spans stale.
func (r *refiner) objectives() (cut, sumDegrees int) {
	for e := 0; e < r.h.NumNets(); e++ {
		span := int(r.span[e])
		if r.stale || !r.active[e] {
			span = r.p.NetSpan(r.h, e)
		}
		if span > 1 {
			w := int(r.h.NetWeight(e))
			cut += w
			sumDegrees += w * (span - 1)
		}
	}
	return cut, sumDegrees
}

// Corrupt is the kway.refine corrupt fault: it moves one random
// non-fixed cell to the next block without updating the incremental
// counts — the reported CutNets/SumDegrees stay truthful (objectives
// recounts every net), while balance can break, which the per-level
// audit catches.
func (r *refiner) Corrupt() {
	n := r.h.NumCells()
	if n == 0 {
		return
	}
	v := r.rng.Intn(n)
	for tries := 0; tries < n; tries++ {
		if r.cfg.Fixed == nil || !r.cfg.Fixed[v] {
			r.p.Part[v] = (r.p.Part[v] + 1) % int32(r.k)
			r.stale = true
			return
		}
		v = (v + 1) % n
	}
}

// Cost is the configured objective over active nets.
func (r *refiner) Cost() int { return r.cost }

// computeCounts fills counts, span, areas and cost from the current
// partition.
func (r *refiner) computeCounts() {
	clear(r.counts)
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
	clear(r.areas)
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

// netGain is the contribution of a net of weight w spanning span
// blocks to gain(u → t), for a pin u in block b ≠ t, with cb and ct
// the net's pin counts in b and t: the objective decrease if u moved
// to t right now.
//
// Under sum of degrees the span falls by one when u is b's last pin
// and rises by one when t holds no pin, so the gain is
// w·[cb = 1] − w·[ct = 0]. Under net cut only a net spanning one or
// two blocks can change state: an uncut net of two or more pins
// becomes cut, and a cut net whose other pins all sit in t becomes
// uncut.
func (r *refiner) netGain(w, span, cb, ct int32) int32 {
	if r.cfg.Objective == NetCut {
		switch {
		case span == 1 && cb > 1:
			return -w
		case span == 2 && cb == 1 && ct > 0:
			return w
		}
		return 0
	}
	var g int32
	if cb == 1 {
		g = w
	}
	if ct == 0 {
		g -= w
	}
	return g
}

// computeGains fills gain[v][t] for every unlocked cell from scratch,
// net by net. A cell's own-block entry stays 0.
func (r *refiner) computeGains() {
	clear(r.gain)
	k := r.k
	for e := 0; e < r.h.NumNets(); e++ {
		if !r.active[e] {
			continue
		}
		c := r.counts[e*k : e*k+k]
		w, span := r.h.NetWeight(e), r.span[e]
		for _, u := range r.h.Pins(e) {
			if r.locked[u] {
				continue
			}
			b := r.p.Part[u]
			g := r.gain[int(u)*k : int(u)*k+k]
			for t, ct := range c {
				if int32(t) != b {
					g[t] += r.netGain(w, span, c[b], ct)
				}
			}
		}
	}
}

// InitPass locks the fixed cells and unlocks the rest, then rebuilds
// gains and buckets. From here on a fixed cell is just a locked one.
func (r *refiner) InitPass() {
	if r.cfg.Fixed != nil {
		copy(r.locked, r.cfg.Fixed)
	} else {
		clear(r.locked)
	}
	r.computeGains()
	for t := 0; t < r.k; t++ {
		r.buckets[t].Clear()
	}
	for v := int32(0); int(v) < r.h.NumCells(); v++ {
		if r.locked[v] {
			continue
		}
		for t := int32(0); int(t) < r.k; t++ {
			if t != r.p.Part[v] {
				r.buckets[t].Insert(v, int(r.gain[int(v)*r.k+int(t)]))
			}
		}
	}
	if r.initKey != nil {
		copy(r.initKey, r.gain)
		for t := 0; t < r.k; t++ {
			r.buckets[t].ConcatenateToZero()
		}
	}
	r.moveCells = r.moveCells[:0]
	r.moveFrom = r.moveFrom[:0]
}

// selectMove returns the best feasible (cell, target) or (-1, -1):
// the first feasible cell of each target's bucket walk, the highest
// gain winning and ties going to the lowest target. A walk stops at
// the first cell no better than the best so far, since buckets
// descend.
//
// A target block that cannot take even the smallest cell has no
// feasible move, so its bucket is skipped rather than walked to the
// end. Random order still walks it, because the cursor shuffles each
// bucket it enters with the run's RNG and skipping would shift the
// stream.
func (r *refiner) selectMove() (int32, int32) {
	bestV, bestT := int32(-1), int32(-1)
	bestG := 0
	minArea := r.h.MinCellArea()
	for t := int32(0); int(t) < r.k; t++ {
		room := r.bound.Hi - r.areas[t]
		if room < minArea && r.cfg.Order != gainbucket.Random {
			continue
		}
		c := r.buckets[t].Walk()
		for v, g, ok := c.Next(); ok; v, g, ok = c.Next() {
			if bestV >= 0 && g <= bestG {
				break
			}
			if a := r.h.Area(int(v)); a <= room && r.areas[r.p.Part[v]]-a >= r.bound.Lo {
				bestV, bestT, bestG = v, t, g
				break
			}
		}
	}
	return bestV, bestT
}

// applyMove moves v to block t, locking it and updating all state.
func (r *refiner) applyMove(v, t int32) {
	from := r.p.Part[v]
	r.locked[v] = true
	for b := int32(0); int(b) < r.k; b++ {
		if b != from {
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

// moveNetUpdate adjusts counts, span and cost for net e as one of its
// pins moves from → to, and shifts the gains of e's free pins by the
// change in e's contribution (netGain).
//
// Let cf and ct be the pin counts of from and to before the move.
// Under sum of degrees the move changes at most four terms:
//   - column from: every pin outside from loses w on from when cf = 1;
//   - column to: every pin outside to gains w on to when ct = 0;
//   - the one pin left in from gains w on every target when cf = 2;
//   - to's former lone pin loses w on every target when ct = 1.
//
// When cf > 2 and ct > 1 none applies, and no term of net cut changes
// either. The shifts go out in pin order × ascending target, nonzero
// only: the Update sequence of recomputing every pin's contribution
// before and after, so LIFO, FIFO and Random bucket order and every
// move stay those of the full recompute.
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
	if r.cfg.Objective == NetCut {
		r.cutNetUpdate(e, from, to, cf, ct, oldSpan)
		return
	}
	var colFrom, colTo, rowFrom, rowTo int32
	if cf == 1 {
		colFrom = -w
	}
	if ct == 0 {
		colTo = w
	}
	if cf == 2 {
		rowFrom = w
	}
	if ct == 1 {
		rowTo = -w
	}
	lo, dLo, hi, dHi := from, colFrom, to, colTo
	if lo > hi {
		lo, dLo, hi, dHi = hi, dHi, lo, dLo
	}
	for _, u := range r.h.Pins(e) {
		if r.locked[u] {
			continue
		}
		switch r.p.Part[u] {
		case from:
			r.shiftRow(u, from, rowFrom, to, colTo)
		case to:
			r.shiftRow(u, to, rowTo, from, colFrom)
		default:
			if dLo != 0 {
				r.shift(u, lo, dLo)
			}
			if dHi != 0 {
				r.shift(u, hi, dHi)
			}
		}
	}
}

// shiftRow shifts gain(u → t) by d on every target t ≠ b, u's block,
// plus dc on target tc, in ascending t. d and dc are never of opposite
// signs, so every shift of a nonzero d is nonzero.
func (r *refiner) shiftRow(u, b, d, tc, dc int32) {
	if d == 0 {
		if dc != 0 {
			r.shift(u, tc, dc)
		}
		return
	}
	for t := int32(0); int(t) < r.k; t++ {
		switch t {
		case b:
		case tc:
			r.shift(u, t, d+dc)
		default:
			r.shift(u, t, d)
		}
	}
}

// shift adds d to gain(u → t) and moves u to its new key in bucket t.
func (r *refiner) shift(u, t, d int32) {
	i := int(u)*r.k + int(t)
	r.gain[i] += d
	key := r.gain[i]
	if r.initKey != nil {
		key -= r.initKey[i]
	}
	r.buckets[t].Update(u, int(key))
}

// cutNetUpdate is moveNetUpdate's gain shift under net cut, after the
// counts and span have moved: each free pin's contribution to each
// target is evaluated before and after the move, and the nonzero
// differences are applied in pin order × ascending target. A net that
// spans three or more blocks before and after contributes nothing
// either way.
func (r *refiner) cutNetUpdate(e int, from, to, cf, ct, oldSpan int32) {
	span := r.span[e]
	if oldSpan > 2 && span > 2 {
		return
	}
	k := r.k
	c := r.counts[e*k : e*k+k]
	w := r.h.NetWeight(e)
	before := func(b int32) int32 {
		switch b {
		case from:
			return cf
		case to:
			return ct
		}
		return c[b]
	}
	for _, u := range r.h.Pins(e) {
		if r.locked[u] {
			continue
		}
		b := r.p.Part[u]
		for t := int32(0); int(t) < k; t++ {
			if t == b {
				continue
			}
			if d := r.netGain(w, span, c[b], c[t]) - r.netGain(w, oldSpan, before(b), before(t)); d != 0 {
				r.shift(u, t, d)
			}
		}
	}
}

// Move selects and applies the pass's next move.
func (r *refiner) Move() (int, bool) {
	v, t := r.selectMove()
	if v < 0 {
		return 0, false
	}
	g := int(r.gain[int(v)*r.k+int(t)])
	r.applyMove(v, t)
	return g, true
}

// Rollback undoes the moves after the first keep, last first; the
// k-way engine never resumes a pass.
func (r *refiner) Rollback(keep int, _ bool) {
	for i := len(r.moveCells) - 1; i >= keep; i-- {
		r.undoMove(r.moveCells[i], r.moveFrom[i])
	}
	r.moveCells = r.moveCells[:keep]
	r.moveFrom = r.moveFrom[:keep]
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
