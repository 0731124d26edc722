package fm

// Sub-round-synchronous parallel FM/CLIP (Config.Par != nil).
//
// The serial engines interleave selection and gain maintenance: every
// applied move immediately cascades gain updates through its nets, so
// the next selection sees them. That dependency chain is inherently
// sequential. The parallel engine breaks it into fixed sub-rounds:
//
//  1. Select up to subroundSize(n) moves serially on the *frozen*
//     bucket keys from the previous synchronization point, tracking
//     feasibility against tentatively-updated areas so the whole
//     batch stays inside the balance bound in every prefix. A cell
//     found area-blocked during the scan is pulled from its bucket
//     and deferred to the next synchronization point, so the scan
//     examines each cell at most once per sub-round instead of once
//     per selection (see selectMoveSub).
//  2. Apply the selected moves serially, in selection order, with the
//     real gain of each move recomputed live against the current pin
//     counts (fixed-order conflict resolution: when two selected
//     moves interact, the later one is applied with its true — often
//     lower — gain rather than skipped, so the move log and the
//     cumulative-gain bookkeeping stay exact).
//  3. Recompute the gains of every free cell incident to a touched
//     net — the only cells whose gains changed — in parallel over
//     fixed ranges (computeGain is a pure read of pin counts), then
//     fold the new keys into the gain buckets serially in gather
//     order.
//
// Every ordering decision (selection, application, bucket updates)
// happens on the calling goroutine against state that is a pure
// function of the input and seed; the workers only evaluate pure
// per-cell gain queries over fixed index ranges. Cuts, partitions and
// move logs are therefore bit-identical across worker counts — a pool
// with one worker (which runs the ranges inline) is the differential
// baseline the determinism suites compare against.
//
// This is a *different algorithm* than the serial engines — frozen
// keys mean selection can be up to one sub-round stale — so
// IntraParallelism 0 and 1 legitimately produce different (equally
// valid) solutions, while all values >= 1 produce identical ones.

import (
	"mlpart/internal/faultinject"
)

// subroundSize is the synchronization granularity: how many moves are
// selected on frozen keys before gains are reconciled. A pure function
// of the cell count only — never of the worker count — so the move
// sequence is identical for every pool size. Small enough to keep
// selection close to the serial gain ordering, large enough to
// amortize the parallel recompute barrier. The 256 cap measured best
// on both axes in the 2k–16k sweep: 512 trades ~2% cut quality for
// ~10% time, 128 loses both.
func subroundSize(n int) int {
	s := n / 16
	if s < 8 {
		s = 8
	}
	if s > 256 {
		s = 256
	}
	return s
}

// initSubround resets the sub-round scratch that sizeFM grew: it
// empties the deferred list and clears the stamp arrays used to dedup
// the affected-cell gather. Called once per Refine run on the parallel
// path.
func (r *refiner) initSubround() {
	ws := r.ws
	ws.deferred = ws.deferred[:0]
	clear(ws.cellStamp)
	clear(ws.netStamp)
	r.stampGen = 0
}

// initPassPar is initPass with the gain recomputation fanned out over
// the pool; the bucket inserts (the ordering-sensitive part) stay
// serial in cell-index order, so the resulting bucket state is
// identical to initPass byte for byte.
func (r *refiner) initPassPar() {
	n := r.h.NumCells()
	r.buckets[0].Clear()
	r.buckets[1].Clear()
	gain, locked := r.gain, r.locked
	r.cfg.Par.Run(n, func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			locked[v] = false
			gain[v] = r.computeGain(int32(v))
		}
	})
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
	r.moveGains = r.moveGains[:0]
}

// refreshGainsPar is refreshGains with the same split: parallel pure
// recompute, serial rebuild in cell-index order.
func (r *refiner) refreshGainsPar() {
	r.buckets[0].Clear()
	r.buckets[1].Clear()
	n := r.h.NumCells()
	gain, locked := r.gain, r.locked
	r.cfg.Par.Run(n, func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			if locked[v] {
				continue
			}
			gain[v] = r.computeGain(int32(v))
		}
	})
	for v := int32(0); int(v) < n; v++ {
		if r.locked[v] {
			continue
		}
		if r.cfg.Boundary && !r.onBoundary(v) {
			continue
		}
		r.buckets[r.p.Part[v]].Insert(v, r.key(v))
	}
}

// selectMoveSub is selectMove for the sub-round engine. On frozen
// keys the serial scan is the bottleneck: once a batch's tentative
// areas reach the balance bound, the top of a bucket accumulates
// area-blocked cells, and re-scanning that prefix for every selection
// is quadratic in the batch size. Instead, every area-blocked cell
// encountered is pulled out of its bucket and deferred for the
// remainder of the sub-round — each cell is examined at most once per
// sub-round, and reinsertDeferred returns the survivors at the
// synchronization point. A deferred cell whose target side becomes
// light again mid-batch is therefore skipped until the next
// sub-round: a deliberate, deterministic divergence from the serial
// engine's per-move re-scan.
func (r *refiner) selectMoveSub() int32 {
	cand := [2]int32{-1, -1}
	key := [2]int{0, 0}
	for s := 0; s < 2; s++ {
		base := len(r.ws.deferred)
		r.buckets[s].Iterate(func(v int32, k int) bool {
			if r.feasible(v) {
				cand[s] = v
				key[s] = k
				return false
			}
			r.ws.deferred = append(r.ws.deferred, v)
			return true
		})
		for _, v := range r.ws.deferred[base:] {
			r.buckets[s].Remove(v)
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

// reinsertDeferred returns the sub-round's area-blocked cells to the
// buckets in deferral order. Cells the reconciliation already
// re-inserted (incident to a touched net) are left alone; the rest
// re-enter with their current key. Deferred cells are never locked —
// out of the buckets they cannot be selected within the batch.
func (r *refiner) reinsertDeferred() {
	for _, v := range r.ws.deferred {
		s := r.p.Part[v]
		if r.buckets[s].Contains(v) {
			continue
		}
		if r.cfg.Boundary && !r.onBoundary(v) {
			continue
		}
		r.buckets[s].Insert(v, r.key(v))
	}
	r.ws.deferred = r.ws.deferred[:0]
}

// applyMoveSub moves v without any gain or bucket maintenance (the
// sub-round reconciliation handles those in batch) and without area
// transfer (the selection phase already performed it tentatively): pin
// counts, the incremental active cut, the partition side and the move
// log. v is already locked and out of the buckets.
func (r *refiner) applyMoveSub(v, realGain int32) {
	from := r.p.Part[v]
	to := 1 - from
	for _, e := range r.h.Nets(int(v)) {
		if !r.active[e] {
			continue
		}
		w := int(r.h.NetWeight(int(e)))
		if r.pc[to][e] == 0 {
			r.activeCut += w // net becomes cut
		}
		r.pc[from][e]--
		r.pc[to][e]++
		if r.pc[from][e] == 0 {
			r.activeCut -= w // net becomes uncut
		}
	}
	r.p.Part[v] = int32(to)
	r.moveCells = append(r.moveCells, v)
	r.moveGains = append(r.moveGains, realGain)
}

// updateAffected reconciles gains after a sub-round: gather the free
// cells incident to any net a selected move touched (stamp-deduped, in
// move order — the only cells whose gains can have changed), recompute
// their gains in parallel over fixed ranges, and fold the new keys
// into the buckets serially in gather order. Bucket keys are only
// touched when they actually changed, so bucket positions (and hence
// LIFO/FIFO tie-breaking) remain a deterministic function of the move
// history. In boundary mode an absent affected cell is inserted — a
// deterministic superset of the serial engine's lazy insertion.
func (r *refiner) updateAffected(sel []int32) {
	r.stampGen++
	gen := r.stampGen
	aff := r.ws.affected[:0]
	oldKey := r.ws.affectedKey[:0]
	cellStamp, netStamp := r.ws.cellStamp, r.ws.netStamp
	for _, v := range sel {
		for _, e := range r.h.Nets(int(v)) {
			if !r.active[e] || netStamp[e] == gen {
				continue
			}
			netStamp[e] = gen
			for _, u := range r.h.Pins(int(e)) {
				if r.locked[u] || cellStamp[u] == gen {
					continue
				}
				cellStamp[u] = gen
				aff = append(aff, u)
				oldKey = append(oldKey, int32(r.key(u)))
			}
		}
	}
	r.ws.affected = aff
	r.ws.affectedKey = oldKey
	gain := r.gain
	r.cfg.Par.Run(len(aff), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			u := aff[i]
			gain[u] = r.computeGain(u)
		}
	})
	for i, u := range aff {
		s := r.p.Part[u]
		nk := r.key(u)
		if r.buckets[s].Contains(u) {
			if nk != int(oldKey[i]) {
				r.buckets[s].Update(u, nk)
			}
		} else if !r.cfg.Boundary || r.onBoundary(u) {
			r.buckets[s].Insert(u, nk)
		}
	}
}

// runPassSub executes one sub-round-synchronous pass and rolls back
// to the best prefix, mirroring runPass's contract. aborted reports
// that the fm.subround fault site cancelled the pass (treated by run
// as a Stop firing mid-pass: rollback still completes, the result is
// feasible, Interrupted is set).
func (r *refiner) runPassSub() (improved, applied, tried int, aborted bool) {
	r.initPassPar()
	// A previous pass can end mid-batch (early exit, fault abort) with
	// cells still parked in the deferral list; the rebuild above
	// restored them to the buckets.
	r.ws.deferred = r.ws.deferred[:0]
	bestGain, cumGain := 0, 0
	bestLen := 0
	sinceBest := 0
	window := r.h.NumCells()/4 + 50
	backtrackAt := r.h.MaxWeightedDegree(r.cfg.MaxNetSize)
	if backtrackAt < 2 {
		backtrackAt = 2
	}
	size := subroundSize(r.h.NumCells())
	done := false
	for !done {
		if r.cfg.Inject != nil {
			switch r.cfg.Inject.Fire(faultinject.SiteFMSubround) {
			case faultinject.ActCancel:
				aborted = true
			case faultinject.ActCorrupt:
				// Flip one cell without updating the incremental
				// state: Result.Cut stays truthful (recounted at the
				// end) while ActiveCut goes stale, which the audit
				// layer must catch.
				if n := r.h.NumCells(); n > 0 {
					v := r.rng.Intn(n)
					r.p.Part[v] = 1 - r.p.Part[v]
				}
			}
			if aborted {
				break
			}
		}
		// Selection on frozen keys. r.areas is advanced tentatively as
		// each move is chosen — selectMove's feasibility check and
		// side tie-break then see exactly the areas the batch will
		// produce, so every prefix of the batch respects the balance
		// bound. The apply phase below therefore skips area transfer.
		sel := r.ws.subSel[:0]
		for len(sel) < size {
			v := r.selectMoveSub()
			if v < 0 {
				break
			}
			s := r.p.Part[v]
			a := r.h.Area(int(v))
			r.areas[s] -= a
			r.areas[1-s] += a
			r.buckets[s].Remove(v)
			r.locked[v] = true
			sel = append(sel, v)
		}
		r.ws.subSel = sel
		if len(sel) == 0 {
			break // no feasible move left: the pass is over
		}
		// Fixed-order application with live-recomputed gains.
		for i, v := range sel {
			realGain := r.computeGain(v)
			cumGain += int(realGain)
			tried++
			r.applyMoveSub(v, realGain)
			if cumGain > bestGain {
				bestGain = cumGain
				bestLen = len(r.moveCells)
				sinceBest = 0
				continue
			}
			sinceBest++
			if r.cfg.EarlyExit && sinceBest > window {
				// Abandon the pass mid-batch: give the tentative area
				// transfer back for the selected-but-unapplied suffix
				// (those cells never moved).
				for _, u := range sel[i+1:] {
					s := r.p.Part[u]
					a := r.h.Area(int(u))
					r.areas[s] += a
					r.areas[1-s] -= a
				}
				done = true
				break
			}
		}
		if done {
			break
		}
		// CDIP backtrack, checked at the sub-round boundary (the
		// serial engines check per move; the cumulative-loss trigger
		// is the same).
		if r.cfg.Backtrack && bestGain-cumGain >= backtrackAt {
			for i := len(r.moveCells) - 1; i >= bestLen; i-- {
				r.undoMove(r.moveCells[i])
			}
			r.moveCells = r.moveCells[:bestLen]
			r.moveGains = r.moveGains[:bestLen]
			cumGain = bestGain
			sinceBest = 0
			// The full bucket rebuild re-admits the deferred cells.
			r.ws.deferred = r.ws.deferred[:0]
			r.refreshGainsPar()
			continue
		}
		r.updateAffected(sel)
		r.reinsertDeferred()
	}
	// Roll back the suffix after the best prefix.
	for i := len(r.moveCells) - 1; i >= bestLen; i-- {
		r.undoMove(r.moveCells[i])
	}
	r.moveCells = r.moveCells[:bestLen]
	return bestGain, bestLen, tried, aborted
}
