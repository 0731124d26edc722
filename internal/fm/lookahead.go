package fm

// Krishnamurthy-style lookahead tie-breaking (§II.A; "An Improved
// Min-Cut Algorithm for Partitioning VLSI Networks", IEEE ToC 1984).
//
// The first-level gain is the ordinary FM gain. The k-th level gain
// (k ≥ 2) of moving v from side F to side T counts nets that could
// become uncut after k−1 further moves minus nets whose removal from
// T is being foreclosed:
//
//	γ_k(v) = |{e ∋ v : no locked cell on F, free(F, e) = k}|
//	       − |{e ∋ v : no locked cell on T, free(T, e) = k−1}|
//
// where free(S, e) counts free cells of e on side S. Cells in the top
// bucket whose first-level keys tie are compared lexicographically on
// (γ_2, …, γ_r). Following the paper's observation that lookahead
// matters mostly with CLIP, the comparison uses real gains and is
// computed on demand only for the tied candidates.

// lookaheadScanLimit bounds how many equal-key candidates are
// compared, keeping selection O(1) amortized on degenerate buckets.
const lookaheadScanLimit = 32

// lockedFree returns (#locked, #free) pins of net e on side s.
func (r *refiner) lockedFree(e int32, s int32) (locked, free int32) {
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

// levelGain computes γ_k(v) for k ≥ 2.
func (r *refiner) levelGain(v int32, k int32) int32 {
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

// lookaheadRefine re-selects among the cells that tie with v on the
// first-level key in v's own bucket structure, comparing higher-level
// gains lexicographically. Only feasible cells are considered.
func (r *refiner) lookaheadRefine(v int32) int32 {
	s := r.p.Part[v]
	topKey := r.key(v)
	best := v
	// (γ_2, …, γ_r) of best; Lookahead ≤ 3 bounds it to two levels,
	// so a fixed array keeps selection allocation-free.
	var vec [2]int32
	bestVec := vec[:r.cfg.Lookahead-1]
	for i := range bestVec {
		bestVec[i] = r.levelGain(v, int32(i+2))
	}
	scanned := 0
	r.buckets[s].Iterate(func(u int32, key int) bool {
		if key < topKey {
			return false // below the tie; stop
		}
		scanned++
		if scanned > lookaheadScanLimit {
			return false
		}
		if u == v || !r.feasible(u) {
			return true
		}
		// Compare lexicographically on (γ_2, ..., γ_r).
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
