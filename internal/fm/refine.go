package fm

import (
	"fmt"
	"math/rand"

	"mlpart/internal/faultinject"
	"mlpart/internal/gainbucket"
	"mlpart/internal/hypergraph"
)

// Partition implements the FMPartition procedure of Fig. 2: it takes
// a netlist and an initial solution and returns a refined
// bipartitioning. If initial is nil a random starting solution is
// generated. If the initial solution violates the balance bound (as a
// projected solution may, §III.B) it is first rebalanced by randomly
// moving modules from the larger block to the smaller.
//
// The returned partition is a fresh object; initial is not modified.
func Partition(h *hypergraph.Hypergraph, initial *hypergraph.Partition, cfg Config, rng *rand.Rand) (*hypergraph.Partition, Result, error) {
	cfg, err := cfg.Normalize()
	if err != nil {
		return nil, Result{}, err
	}
	var p *hypergraph.Partition
	if initial == nil {
		p = hypergraph.RandomPartition(h, 2, cfg.Tolerance, rng)
	} else {
		if initial.K != 2 {
			return nil, Result{}, fmt.Errorf("fm: initial partition has K=%d, want 2", initial.K)
		}
		if err := initial.Validate(h.NumCells()); err != nil {
			return nil, Result{}, err
		}
		p = initial.Clone()
	}
	if bound := hypergraph.Balance(h, 2, cfg.Tolerance); !p.IsBalanced(h, bound) {
		moved := p.Rebalance(h, bound, rng)
		cfg.Telemetry.RecordRebalance(moved)
	}
	res, err := Refine(h, p, cfg, rng)
	return p, res, err
}

// Refine improves the bipartition p in place using the configured
// engine. p must be a valid, balanced 2-way partition of h.
func Refine(h *hypergraph.Hypergraph, p *hypergraph.Partition, cfg Config, rng *rand.Rand) (Result, error) {
	cfg, err := cfg.Normalize()
	if err != nil {
		return Result{}, err
	}
	if p.K != 2 {
		return Result{}, fmt.Errorf("fm: refine with K=%d, want 2", p.K)
	}
	if err := p.Validate(h.NumCells()); err != nil {
		return Result{}, err
	}
	if cfg.Engine == EnginePROP || cfg.Engine == EngineCLIPPROP {
		return newPropRefiner(h, p, cfg, rng).run(), nil
	}
	return newRefiner(h, p, cfg, rng).run(), nil
}

// refiner holds all per-run state. It is rebuilt for each Refine
// call, but the backing arrays live in a Workspace (the caller's via
// Config.WS, or a throwaway) so repeated calls reuse memory; within a
// run, buckets are rebuilt per pass (the paper's implementation
// reinitializes the entire bucket structure before each pass).
//
// The partition's state per net is one netRec: the side-0 pin count
// and the XOR of the side-0 pin ids. Side 1 follows from the net's
// size and the XOR of all its pins, so the lone pin left on either
// side is read off the record instead of found by a pin scan.
type refiner struct {
	h   *hypergraph.Hypergraph
	p   *hypergraph.Partition
	cfg Config
	rng *rand.Rand
	ws  *Workspace

	bound  hypergraph.BalanceBound
	areas  [2]int64
	maxDeg int // MaxWeightedDegree over the active nets: the gain bound

	nets    []netRec // per net: side-0 pins, or inactive
	netXor  []int32  // per net: XOR of all its pin ids
	gain    []int32  // current real cut gain of moving each cell
	initKey []int32  // CLIP: gain at pass start (bucket key = gain − initKey)
	locked  []bool
	buckets [2]*gainbucket.Structure

	moveCells []int32 // the pass's moves, for rollback
	activeCut int     // number of active nets currently cut
}

// netRec is the refinement state of one net: c0 pins on side 0 whose
// ids XOR to x0. c0 is inactive for nets over MaxNetSize, which
// refinement ignores.
type netRec struct {
	c0, x0 int32
}

const inactive = -1

func newRefiner(h *hypergraph.Hypergraph, p *hypergraph.Partition, cfg Config, rng *rand.Rand) *refiner {
	n := h.NumCells()
	ws := cfg.grab()
	// Every buffer is grown in place on the workspace and aliased by
	// the refiner, so growth is retained across runs.
	ws.sizeFM(cfg, n, h.NumNets())
	r := &refiner{
		h: h, p: p, cfg: cfg, rng: rng, ws: ws,
		bound:     hypergraph.Balance(h, 2, cfg.Tolerance),
		nets:      ws.nets,
		netXor:    ws.netXor,
		gain:      ws.gain,
		locked:    ws.locked,
		moveCells: ws.moveCells[:0],
	}
	r.maxDeg = h.MaxWeightedDegree(cfg.MaxNetSize)
	bucketRange := r.maxDeg
	if cfg.Engine == EngineCLIP {
		r.initKey = ws.initKey
		bucketRange = 2 * r.maxDeg // §II.B: the range of bucket indices must double
	}
	r.buckets[0] = ws.bucket(0, n, bucketRange, cfg.Order, rng)
	r.buckets[1] = ws.bucket(1, n, bucketRange, cfg.Order, rng)
	return r
}

func (r *refiner) run() Result {
	initial := r.countPins()
	d := r.cfg.passes(r.h.NumCells(), r.maxDeg)
	res := d.Run(r)
	res.InitialCut = initial
	res.Cut = r.p.WeightedCut(r.h)
	res.ActiveCut = r.activeCut
	// Hand any move-log growth back to the workspace (appends stay
	// within the pre-grown capacity today, but do not rely on it).
	r.ws.moveCells = r.moveCells
	return res
}

// passes returns the pass driver of a run under c on cells cells,
// whose gains are bounded by maxDeg.
func (c Config) passes(cells, maxDeg int) Passes {
	d := Passes{
		MaxPasses: c.MaxPasses,
		Stop:      c.Stop,
		Inject:    c.Inject,
		Site:      faultinject.SiteFMPass,
		Telemetry: c.Telemetry,
		Label:     c.Engine.String(),
	}
	if c.EarlyExit {
		// Chaco/Metis-style: the pass is abandoned after this many
		// consecutive non-improving moves.
		d.Window = cells/4 + 50
	}
	if c.Backtrack {
		// A cumulative loss of one maximum weighted degree below the
		// best prefix needs more than one perfect move to recover.
		d.Backtrack = max(maxDeg, 2)
	}
	return d
}

// Corrupt is the fm.pass corrupt fault: it flips one cell across the
// cut and moves it in the net records, but leaves the side areas and
// the active cut stale — res.Cut stays truthful (recounted at the end)
// while res.ActiveCut goes stale, which the audit layer must catch.
// Keeping the records in step with the partition means the lone-pin
// lookup always names a cell, so the fault stays a wrong answer and
// never becomes a crash.
func (r *refiner) Corrupt() {
	n := r.h.NumCells()
	if n == 0 {
		return
	}
	v := int32(r.rng.Intn(n))
	from := r.p.Part[v]
	for _, e := range r.h.Nets(int(v)) {
		if rec := &r.nets[e]; rec.c0 != inactive {
			rec.c0 += 2*from - 1
			rec.x0 ^= v
		}
	}
	r.p.Part[v] = 1 - from
}

// Cost is the active cut.
func (r *refiner) Cost() int { return r.activeCut }

// countPins builds netXor, the net records, the active cut and the
// side areas from the partition, and returns the cut over all nets,
// ignored ones included.
func (r *refiner) countPins() (cut int) {
	clear(r.netXor)
	r.areas[0], r.areas[1] = 0, 0
	for v := int32(0); int(v) < r.h.NumCells(); v++ {
		r.areas[r.p.Part[v]] += r.h.Area(int(v))
		for _, e := range r.h.Nets(int(v)) {
			r.netXor[e] ^= v
		}
	}
	cut, r.activeCut = r.countNets()
	return cut
}

// countNets recounts the net records from the partition, and returns
// the cut over all nets and over the active ones.
func (r *refiner) countNets() (cut, active int) {
	clear(r.nets)
	for v := int32(0); int(v) < r.h.NumCells(); v++ {
		if r.p.Part[v] == 0 {
			for _, e := range r.h.Nets(int(v)) {
				r.nets[e].c0++
				r.nets[e].x0 ^= v
			}
		}
	}
	for e := range r.nets {
		size := r.h.NetSize(e)
		isCut := r.nets[e].c0 > 0 && int(r.nets[e].c0) < size
		w := int(r.h.NetWeight(e))
		if isCut {
			cut += w
		}
		if r.cfg.MaxNetSize >= 0 && size > r.cfg.MaxNetSize {
			r.nets[e].c0 = inactive
		} else if isCut {
			active += w
		}
	}
	return cut, active
}

// computeGain returns the cut gain of moving cell v to the other
// side, considering only active nets.
func (r *refiner) computeGain(v int32) int32 {
	s := r.p.Part[v]
	var g int32
	for _, e := range r.h.Nets(int(v)) {
		c0 := int(r.nets[e].c0)
		if c0 == inactive {
			continue
		}
		size := r.h.NetSize(int(e))
		cs := c0 // pins on v's side
		if s == 1 {
			cs = size - c0
		}
		w := r.h.NetWeight(int(e))
		if cs == 1 {
			g += w
		}
		if cs == size {
			g -= w
		}
	}
	return g
}

// onBoundary reports whether v is incident to a cut active net.
func (r *refiner) onBoundary(v int32) bool {
	for _, e := range r.h.Nets(int(v)) {
		if c0 := int(r.nets[e].c0); c0 > 0 && c0 < r.h.NetSize(int(e)) {
			return true
		}
	}
	return false
}

// key returns the bucket key of cell v under the configured engine.
func (r *refiner) key(v int32) int {
	if r.cfg.Engine == EngineCLIP {
		return int(r.gain[v] - r.initKey[v])
	}
	return int(r.gain[v])
}

// recomputeGains recomputes the gain of every free cell.
func (r *refiner) recomputeGains() {
	for v := range r.gain {
		if !r.locked[v] {
			r.gain[v] = r.computeGain(int32(v))
		}
	}
}

// InitPass rebuilds gains, buckets and locks for a new pass.
func (r *refiner) InitPass() {
	n := r.h.NumCells()
	r.buckets[0].Clear()
	r.buckets[1].Clear()
	clear(r.locked)
	r.recomputeGains()
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
		// CLIP preprocessing: concatenate all buckets into bucket 0,
		// highest initial gain first. Keys are now deltas.
		r.buckets[0].ConcatenateToZero()
		r.buckets[1].ConcatenateToZero()
	}
	r.moveCells = r.moveCells[:0]
}

// slack returns the largest cell area that can leave side s without
// breaking the balance bound: a move of area a from s is feasible iff
// areas[1-s]+a ≤ Hi and areas[s]−a ≥ Lo, i.e. iff a ≤ slack(s).
func (r *refiner) slack(s int32) int64 {
	in := r.bound.Hi - r.areas[1-s]
	if out := r.areas[s] - r.bound.Lo; out < in {
		return out
	}
	return in
}

// feasible reports whether moving v from its side keeps the solution
// inside the balance bound.
func (r *refiner) feasible(v int32) bool {
	return r.h.Area(int(v)) <= r.slack(r.p.Part[v])
}

// selectMove picks the next base cell: the highest-key feasible cell
// over both bucket structures; ties between the two sides go to the
// side with larger area (then side 0). With lookahead enabled, cells
// sharing the top feasible key are compared by higher-level gains.
// Returns -1 if no feasible move exists.
//
// A side whose slack is below the smallest cell area has no feasible
// cell, so its scan is skipped: the full scan would visit every cell
// of the side and return nothing. Random order still scans, because
// Iterate shuffles with the run's RNG and skipping would shift the
// stream.
func (r *refiner) selectMove() int32 {
	cand := [2]int32{-1, -1}
	key := [2]int{0, 0}
	minArea := r.h.MinCellArea()
	for s := int32(0); s < 2; s++ {
		slack := r.slack(s)
		if slack < minArea && r.cfg.Order != gainbucket.Random {
			continue
		}
		c := r.buckets[s].Walk()
		for v, k, ok := c.Next(); ok; v, k, ok = c.Next() {
			if r.h.Area(int(v)) <= slack {
				cand[s], key[s] = v, k
				break
			}
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

// applyMove moves v to the other side, locking it, updating the net
// records, neighbor gains and bucket positions, and logging the move.
//
// Per net, the gain rule follows the pin counts across the move: a
// net with no pin on the to-side becomes cut, so every free pin gains
// from a follow-up move; a lone to-side free pin loses its incentive;
// a net left with no from-side pin is uncut, so every free pin loses;
// and the last free from-side pin could now uncut it. The lone pins
// come from the records' XORs. On a 2-pin net the other pin gets two
// of these updates back to back, of the same sign, so it gets one
// update of twice the weight instead.
func (r *refiner) applyMove(v int32) {
	from := r.p.Part[v]
	to := 1 - from
	if r.buckets[from].Contains(v) {
		r.buckets[from].Remove(v)
	}
	r.locked[v] = true
	r.areas[from] -= r.h.Area(int(v))
	r.areas[to] += r.h.Area(int(v))
	d := 2*from - 1            // change of the side-0 count
	maskT, maskF := -to, -from // all ones for side 1: the XOR then takes netXor in

	for _, e := range r.h.Nets(int(v)) {
		rec := &r.nets[e]
		c0, x0 := int(rec.c0), rec.x0
		if c0 == inactive {
			continue
		}
		rec.c0 += d
		rec.x0 ^= v
		w := r.h.NetWeight(int(e))
		pins := r.h.Pins(int(e))
		cT := c0 // to-side pins before the move
		if to == 1 {
			cT = len(pins) - c0
		}
		if len(pins) == 2 {
			u := pins[0] ^ pins[1] ^ v
			if cT == 0 {
				r.activeCut += int(w)
			} else {
				r.activeCut -= int(w)
				w = -w
			}
			if !r.locked[u] {
				r.adjustGain(u, 2*w)
			}
			continue
		}
		switch cT {
		case 0:
			r.activeCut += int(w) // net becomes cut
			for _, u := range pins {
				if !r.locked[u] {
					r.adjustGain(u, +w)
				}
			}
		case 1:
			if u := x0 ^ r.netXor[e]&maskT; !r.locked[u] {
				r.adjustGain(u, -w)
			}
		}
		switch len(pins) - cT - 1 { // from-side pins after the move
		case 0:
			r.activeCut -= int(w) // net becomes uncut
			for _, u := range pins {
				if !r.locked[u] {
					r.adjustGain(u, -w)
				}
			}
		case 1:
			if u := rec.x0 ^ r.netXor[e]&maskF; !r.locked[u] {
				r.adjustGain(u, +w)
			}
		}
	}
	r.p.Part[v] = to
	r.moveCells = append(r.moveCells, v)
}

// adjustGain shifts the gain of free cell u by delta and keeps its
// bucket position consistent. In boundary mode a touched interior
// cell enters the buckets here ("as needed" gain computation).
func (r *refiner) adjustGain(u int32, delta int32) {
	r.gain[u] += delta
	s := r.p.Part[u]
	if r.buckets[s].Contains(u) {
		r.buckets[s].Update(u, r.key(u))
	} else if r.cfg.Boundary {
		r.buckets[s].Insert(u, r.key(u))
	}
}

// Move selects and applies the pass's next move.
func (r *refiner) Move() (int, bool) {
	v := r.selectMove()
	if v < 0 {
		return 0, false
	}
	g := int(r.gain[v])
	r.applyMove(v)
	return g, true
}

// Rollback undoes the moves after the first keep. A CDIP backtrack
// (resume) undoes them one by one; the reversed cells stay locked in
// place so a different sequence is tried, and the free cells' gains
// are recomputed. At the end of a pass most tried moves are rolled
// back, so rather than undo them one by one it flips their cells back
// and recounts the net records from the partition. The side areas
// follow each flip, and the active cut regains each flipped cell's
// gain, which stayed as it was when the cell moved and locked. Gains
// are left stale; the next pass recomputes them.
func (r *refiner) Rollback(keep int, resume bool) {
	if resume {
		for i := len(r.moveCells) - 1; i >= keep; i-- {
			r.undoMove(r.moveCells[i])
		}
		r.moveCells = r.moveCells[:keep]
		r.refreshGains()
		return
	}
	for _, v := range r.moveCells[keep:] {
		s := r.p.Part[v]
		r.areas[s] -= r.h.Area(int(v))
		r.areas[1-s] += r.h.Area(int(v))
		r.activeCut += int(r.gain[v])
		r.p.Part[v] = 1 - s
	}
	r.moveCells = r.moveCells[:keep]
	r.countNets()
}

// refreshGains recomputes the gains of all free cells and rebuilds
// the bucket structures mid-pass (after a CDIP backtrack invalidated
// the incremental state). CLIP keys keep their pass-start baseline.
func (r *refiner) refreshGains() {
	r.buckets[0].Clear()
	r.buckets[1].Clear()
	r.recomputeGains()
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

// undoMove reverses a logged move of cell v: flips it back and
// restores the net records, areas and the active cut. Gains are left
// stale for refreshGains.
func (r *refiner) undoMove(v int32) {
	cur := r.p.Part[v] // side it was moved to
	orig := 1 - cur
	d := 2*cur - 1 // change of the side-0 count
	for _, e := range r.h.Nets(int(v)) {
		rec := &r.nets[e]
		c0 := int(rec.c0)
		if c0 == inactive {
			continue
		}
		rec.c0 += d
		rec.x0 ^= v
		size := r.h.NetSize(int(e))
		cCur := c0 // pins on v's current side before the undo
		if cur == 1 {
			cCur = size - c0
		}
		if cCur == size {
			r.activeCut += int(r.h.NetWeight(int(e))) // net becomes cut
		} else if cCur == 1 {
			r.activeCut -= int(r.h.NetWeight(int(e))) // net becomes uncut
		}
	}
	r.areas[cur] -= r.h.Area(int(v))
	r.areas[orig] += r.h.Area(int(v))
	r.p.Part[v] = orig
}
