package fm

// PROP: the probability-based gain computation of Dutt & Deng ("A
// Probability-Based Approach to VLSI Circuit Partitioning", DAC 1996,
// the paper's [13]), surveyed in §II.A. Instead of the immediate cut
// change, each cell is scored by an expected benefit that accounts
// for the probability that its neighbors will also move:
//
// Every free cell carries a move probability p₀ (0.95 in [13]);
// locked cells stay put. For net e and a free cell v on side F, the
// probability that the remaining F pins all leave is
//
//	A(e,v) = 0                     if e has a locked pin on F,
//	         p₀^(freeF(e) − 1)     otherwise,
//
// and the PROP gain is
//
//	gain(v) = Σ_{e cut}     A(e,v)          (e will likely be freed)
//	        − Σ_{e uncut}  (1 − A(e,v))     (e will likely stay cut)
//
// which reduces exactly to the FM gain as p₀ → 0. Since these gains
// are non-discrete, PROP cannot exploit the bucket structure (§II.A);
// a lazy max-heap replaces it, which is why PROP costs a factor of
// four to eight in runtime — matching the paper's observation. The
// CLIP idea composes with PROP (the CL-PR variant of Table VII) by
// keying the heap on the gain *delta* since the start of the pass.

import (
	"container/heap"
	"math"
	"math/rand"

	"mlpart/internal/hypergraph"
)

// DefaultInitialProb is p₀ of [13].
const DefaultInitialProb = 0.95

// propRefiner is the heap-based PROP engine.
type propRefiner struct {
	h   *hypergraph.Hypergraph
	p   *hypergraph.Partition
	cfg Config
	rng *rand.Rand
	ws  *Workspace

	bound hypergraph.BalanceBound
	areas [2]int64

	active []bool
	pc     [2][]int32 // total pin counts per side
	lc     [2][]int32 // locked pin counts per side
	locked []bool

	p0   float64
	pows []float64 // p0^k lookup, k ≤ max net size

	gain    []float64 // current PROP gain
	initKey []float64 // CLIP-PROP: gain at pass start
	version []int32   // entry staleness counter
	heaps   [2]propHeap

	moveCells []int32
}

type propEntry struct {
	key     float64
	cell    int32
	version int32
}

type propHeap []propEntry

func (h propHeap) Len() int            { return len(h) }
func (h propHeap) Less(i, j int) bool  { return h[i].key > h[j].key } // max-heap
func (h propHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *propHeap) Push(x interface{}) { *h = append(*h, x.(propEntry)) }
func (h *propHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

func newPropRefiner(h *hypergraph.Hypergraph, p *hypergraph.Partition, cfg Config, rng *rand.Rand) *propRefiner {
	n := h.NumCells()
	ws := cfg.grab()
	// As in newRefiner: buffers are grown on the workspace and aliased.
	ws.sizeProp(cfg, n, h.NumNets())
	r := &propRefiner{
		h: h, p: p, cfg: cfg, rng: rng, ws: ws,
		bound:   hypergraph.Balance(h, 2, cfg.Tolerance),
		active:  ws.active,
		locked:  ws.locked,
		p0:      cfg.InitialProb,
		gain:    ws.gainF,
		version: ws.version,
	}
	if r.p0 == 0 {
		r.p0 = DefaultInitialProb
	}
	r.pc[0] = ws.pc[0]
	r.pc[1] = ws.pc[1]
	r.lc[0] = ws.lc[0]
	r.lc[1] = ws.lc[1]
	r.moveCells = ws.moveCells[:0]
	r.heaps[0] = ws.heaps[0][:0]
	r.heaps[1] = ws.heaps[1][:0]
	maxNet := 2
	for e := 0; e < h.NumNets(); e++ {
		r.active[e] = cfg.MaxNetSize < 0 || h.NetSize(e) <= cfg.MaxNetSize
		if r.active[e] && h.NetSize(e) > maxNet {
			maxNet = h.NetSize(e)
		}
	}
	ws.pows = hypergraph.Resize(ws.pows, maxNet+1)
	r.pows = ws.pows
	r.pows[0] = 1
	for k := 1; k <= maxNet; k++ {
		r.pows[k] = r.pows[k-1] * r.p0
	}
	if cfg.Engine == EngineCLIPPROP {
		r.initKey = ws.initKeyF
	}
	return r
}

func (r *propRefiner) run() Result {
	initial := r.p.WeightedCut(r.h)
	d := r.cfg.passes(r.h.NumCells(), 0) // no Backtrack under PROP
	res := d.Run(r)
	res.InitialCut = initial
	res.Cut = r.p.WeightedCut(r.h)
	res.ActiveCut = -1 // PROP keeps no incremental cut counter
	// Heap entries grow past n via lazy deletion; keep the growth.
	r.ws.heaps[0] = r.heaps[0]
	r.ws.heaps[1] = r.heaps[1]
	r.ws.moveCells = r.moveCells
	return res
}

// Corrupt flips one random cell. PROP keeps no incremental cut
// counter, so this degrades quality (or balance, which the audit
// balance check catches) without an ActiveCut mismatch.
func (r *propRefiner) Corrupt() {
	if n := r.h.NumCells(); n > 0 {
		v := r.rng.Intn(n)
		r.p.Part[v] = 1 - r.p.Part[v]
	}
}

// Cost is -1: PROP keeps no incremental cut counter, and a recount
// per pass would cost more than the record is worth.
func (r *propRefiner) Cost() int { return -1 }

// computeCounts fills pin counts and areas from the partition.
func (r *propRefiner) computeCounts() {
	clear(r.pc[0])
	clear(r.pc[1])
	clear(r.lc[0])
	clear(r.lc[1])
	r.areas[0], r.areas[1] = 0, 0
	for v := 0; v < r.h.NumCells(); v++ {
		s := r.p.Part[v]
		r.areas[s] += r.h.Area(v)
		for _, e := range r.h.Nets(v) {
			r.pc[s][e]++
		}
	}
}

// netA returns A(e, v) for free cell v on side s of net e.
func (r *propRefiner) netA(e int32, s int32) float64 {
	if r.lc[s][e] > 0 {
		return 0
	}
	free := r.pc[s][e] - r.lc[s][e]
	return r.pows[free-1] // free ≥ 1 because v itself is free on s
}

// computeGain evaluates the PROP gain of free cell v from scratch.
func (r *propRefiner) computeGain(v int32) float64 {
	s := r.p.Part[v]
	var g float64
	for _, e := range r.h.Nets(int(v)) {
		if !r.active[e] {
			continue
		}
		w := float64(r.h.NetWeight(int(e)))
		cut := r.pc[0][e] > 0 && r.pc[1][e] > 0
		a := r.netA(e, s)
		if cut {
			g += w * a
		} else {
			g -= w * (1 - a)
		}
	}
	return g
}

// realGain is the immediate integer cut change of moving v — used
// for pass accounting, exactly as in classic FM.
func (r *propRefiner) realGain(v int32) int {
	s := r.p.Part[v]
	g := 0
	for _, e := range r.h.Nets(int(v)) {
		if !r.active[e] {
			continue
		}
		w := int(r.h.NetWeight(int(e)))
		if r.pc[s][e] == 1 {
			g += w
		}
		if r.pc[1-s][e] == 0 {
			g -= w
		}
	}
	return g
}

// key maps a gain to the heap key under the engine.
func (r *propRefiner) key(v int32) float64 {
	if r.cfg.Engine == EngineCLIPPROP {
		return r.gain[v] - r.initKey[v]
	}
	return r.gain[v]
}

// push refreshes v's heap entry.
func (r *propRefiner) push(v int32) {
	r.version[v]++
	heap.Push(&r.heaps[r.p.Part[v]], propEntry{key: r.key(v), cell: v, version: r.version[v]})
}

// InitPass recounts the pins and rebuilds gains and heaps for a new
// pass.
func (r *propRefiner) InitPass() {
	n := r.h.NumCells()
	r.computeCounts()
	r.heaps[0] = r.heaps[0][:0]
	r.heaps[1] = r.heaps[1][:0]
	clear(r.locked)
	clear(r.version)
	for v := int32(0); int(v) < n; v++ {
		r.gain[v] = r.computeGain(v)
	}
	if r.cfg.Engine == EngineCLIPPROP {
		copy(r.initKey, r.gain)
	}
	for v := int32(0); int(v) < n; v++ {
		r.push(v)
	}
	r.moveCells = r.moveCells[:0]
}

func (r *propRefiner) feasible(v int32) bool {
	s := r.p.Part[v]
	a := r.h.Area(int(v))
	return r.areas[1-s]+a <= r.bound.Hi && r.areas[s]-a >= r.bound.Lo
}

// selectScanLimit bounds how many valid-but-infeasible entries a
// side's heap is probed past per selection. When a side is blocked by
// the balance bound (the common case once one block reaches its Lo
// bound), every cell on it is infeasible with unit areas; without the
// bound each selection would pop and re-push the whole side — an
// O(n² log n) pass.
const selectScanLimit = 32

// selectMove pops the best valid feasible cell across both heaps.
// Stale entries are discarded; up to selectScanLimit feasible-check
// failures per side are tolerated (popped and re-pushed) before the
// side is treated as blocked for this selection.
func (r *propRefiner) selectMove() int32 {
	var stash [2][]propEntry
	best := int32(-1)
	bestKey := math.Inf(-1)
	for s := 0; s < 2; s++ {
		probes := 0
		for len(r.heaps[s]) > 0 {
			e := r.heaps[s][0]
			v := e.cell
			if r.locked[v] || e.version != r.version[v] || r.p.Part[v] != int32(s) {
				heap.Pop(&r.heaps[s]) // stale
				continue
			}
			if !r.feasible(v) {
				probes++
				if probes > selectScanLimit {
					break // side blocked this round
				}
				heap.Pop(&r.heaps[s])
				stash[s] = append(stash[s], e)
				continue
			}
			if e.key > bestKey {
				bestKey = e.key
				best = v
			}
			break
		}
	}
	for s := 0; s < 2; s++ {
		for _, e := range stash[s] {
			heap.Push(&r.heaps[s], e)
		}
	}
	return best
}

// contribSide returns net e's contribution to the PROP gain of any
// free pin on side s, given the net's cut state: w·A if cut,
// −w·(1−A) if uncut, where A = p₀^(free_s − 1) unless a locked pin
// sits on s. Returns 0 when side s has no free pins (no pin uses the
// value then).
func (r *propRefiner) contribSide(e int32, s int32, cut bool) float64 {
	free := r.pc[s][e] - r.lc[s][e]
	if free < 1 {
		return 0
	}
	var a float64
	if r.lc[s][e] == 0 {
		a = r.pows[free-1]
	}
	w := float64(r.h.NetWeight(int(e)))
	if cut {
		return w * a
	}
	return -w * (1 - a)
}

// applyMove moves v, locks it, and shifts the gains of its nets' free
// pins by the per-side contribution delta — O(|e|) per net, like
// classic FM, instead of recomputing each neighbor's whole gain.
func (r *propRefiner) applyMove(v int32) {
	from := r.p.Part[v]
	to := 1 - from
	r.locked[v] = true
	r.version[v]++ // invalidate heap entries
	r.areas[from] -= r.h.Area(int(v))
	r.areas[to] += r.h.Area(int(v))
	for _, e := range r.h.Nets(int(v)) {
		if !r.active[e] {
			r.pc[from][e]--
			r.pc[to][e]++
			continue
		}
		oldCut := r.pc[0][e] > 0 && r.pc[1][e] > 0
		var old [2]float64
		old[0] = r.contribSide(e, 0, oldCut)
		old[1] = r.contribSide(e, 1, oldCut)
		r.pc[from][e]--
		r.pc[to][e]++
		r.lc[to][e]++ // v is now locked on the to side
		newCut := r.pc[0][e] > 0 && r.pc[1][e] > 0
		var del [2]float64
		del[0] = r.contribSide(e, 0, newCut) - old[0]
		del[1] = r.contribSide(e, 1, newCut) - old[1]
		if del[0] == 0 && del[1] == 0 {
			continue
		}
		for _, u := range r.h.Pins(int(e)) {
			if r.locked[u] {
				continue
			}
			if d := del[r.p.Part[u]]; d != 0 {
				r.gain[u] += d
				r.push(u)
			}
		}
	}
	r.p.Part[v] = int32(to)
	r.moveCells = append(r.moveCells, v)
}

// undoMove rolls back a logged move (gains left stale).
func (r *propRefiner) undoMove(v int32) {
	cur := r.p.Part[v]
	orig := 1 - cur
	for _, e := range r.h.Nets(int(v)) {
		r.pc[cur][e]--
		r.pc[orig][e]++
		if r.active[e] {
			r.lc[cur][e]--
		}
	}
	r.areas[cur] -= r.h.Area(int(v))
	r.areas[orig] += r.h.Area(int(v))
	r.p.Part[v] = int32(orig)
}

// Move selects and applies the pass's next move.
func (r *propRefiner) Move() (int, bool) {
	v := r.selectMove()
	if v < 0 {
		return 0, false
	}
	g := r.realGain(v)
	r.applyMove(v)
	return g, true
}

// Rollback undoes the moves after the first keep, last first; PROP
// never resumes a pass.
func (r *propRefiner) Rollback(keep int, _ bool) {
	for i := len(r.moveCells) - 1; i >= keep; i-- {
		r.undoMove(r.moveCells[i])
	}
	r.moveCells = r.moveCells[:keep]
}
