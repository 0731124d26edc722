package hypergraph

import (
	"mlpart/internal/intrapar"
)

// InduceWorkspace holds the scratch memory of InduceInto: the
// assembly buffers, dedup stamps and fill cursors of every pool range,
// and the clustering check's occupancy flags. Threading one workspace
// through the induce calls of a multilevel run reduces each level's
// allocations to the arrays the returned Hypergraph actually retains
// (the struct, areas, the two CSR directions, optional weights), and
// a reused destination Hypergraph per level removes those too.
//
// Sizing contract: every buffer reaches its final size at the first
// (finest) call and never grows again while the run coarsens. The
// assembly buffers are sized from the fine netlist, not grown by
// appending: range w of a call assembles into its own window of one
// pin buffer, one net-length buffer and one weight buffer, each window
// as long as the fine pins or nets of that range, and a coarse net
// never keeps more pins than its fine net. Stamps, cursors and flags
// are sized by the cluster count, which only shrinks level by level.
// A workspace reused on a larger input (a Session's Scratch moving on
// to a bigger job) grows once, on its first call for that input.
//
// Ownership rule: an InduceWorkspace belongs to exactly one goroutine
// and one pipeline attempt at a time; never store one in a package
// level variable or share it across concurrent attempts. The zero
// value is ready to use.
type InduceWorkspace struct {
	mark    [][]int32 // per range: cluster dedup stamps
	pins    [][]int32 // per range: kept coarse pins, a window of pinBuf
	lens    [][]int32 // per range: pin count per kept net, a window of lenBuf
	weights [][]int32 // per range: weight per kept net, a window of weightBuf
	counts  [][]int32 // per range: per-cluster pin counts → fill cursors
	bases   []int     // per range: first coarse net index

	pinBuf, lenBuf, weightBuf []int32 // window backing: fine pins, fine nets
	seen                      []bool  // clustering check: cluster occupied

	// cur is the call in flight that the range functions read; they
	// are method values bound once per workspace, so dispatching a
	// phase allocates nothing. InduceInto clears cur on return so a
	// workspace never retains a hypergraph.
	cur                                 induceState
	assembleFn, sumFn, cursorFn, fillFn func(w, lo, hi int)
}

// induceState is what the range functions need of one InduceInto call.
type induceState struct {
	h, hh *Hypergraph // fine input, coarse result
	c     *Clustering
	used  int // ranges the phase-1 Run issued
}

// grow sizes the scratch for the given worker count, cluster count
// and fine netlist. Stamps and counts are (re)initialized by the
// workers themselves at the start of each call.
func (s *InduceWorkspace) grow(workers, k, numNets, numPins int) {
	for len(s.mark) < workers {
		s.mark = append(s.mark, nil)
		s.pins = append(s.pins, nil)
		s.lens = append(s.lens, nil)
		s.weights = append(s.weights, nil)
		s.counts = append(s.counts, nil)
		s.bases = append(s.bases, 0)
	}
	for w := 0; w < workers; w++ {
		s.mark[w] = Resize(s.mark[w], k)
		s.counts[w] = Resize(s.counts[w], k)
	}
	s.pinBuf = Resize(s.pinBuf, numPins)
	s.lenBuf = Resize(s.lenBuf, numNets)
	s.weightBuf = Resize(s.weightBuf, numNets)
	if s.assembleFn == nil {
		s.assembleFn, s.sumFn, s.cursorFn, s.fillFn = s.assemble, s.sumCounts, s.toCursors, s.fill
	}
}

// Resize returns buf with length n, reallocating to exactly n only
// when its capacity is too small (or buf is nil, so an empty result is
// never nil). The contents are unspecified.
func Resize[T any](buf []T, n int) []T {
	if buf == nil || cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// InduceWSPar constructs the coarser hypergraph H_{i+1} induced by a
// clustering P^k of H_i, exactly following Definition 1 of the paper:
// every net e of H_i becomes the net e* spanning the set of clusters
// containing modules of e, unless |e*| = 1, in which case it is
// dropped. Cluster areas are the sums of their member areas. Parallel
// nets are kept (each contributes to the cut separately, as in the
// paper); MergeParallelNets is the optional post-step that merges them.
//
// The result is byte-identical to building the coarse netlist through
// Builder: nets keep fine-net order, pins are sorted ascending and
// deduplicated, coarse nets with fewer than two pins are dropped, and
// the weighted flag is set iff any kept net has weight ≠ 1. It is
// freshly allocated and independent of ws, so reusing the workspace
// for the next level never aliases a returned hypergraph; nil ws
// allocates scratch per call. InduceWSPar is InduceInto into a new
// Hypergraph.
func InduceWSPar(h *Hypergraph, c *Clustering, ws *InduceWorkspace, pool *intrapar.Pool) (*Hypergraph, error) {
	return InduceInto(h, c, ws, pool, &Hypergraph{})
}

// InduceInto is InduceWSPar building into dst, which it returns. The
// arrays dst holds are the storage: each grows only, to the exact
// length this level needs, and is rewritten in full before it is read
// (the area sums, netStart[0] and cellStart[0] are explicit clears).
// Every field of dst is overwritten, so nothing of the hypergraph it
// held before — its areas, weights, names — carries over. A
// multilevel run that keeps one Hypergraph per level rebuilds a
// hierarchy of the same or smaller size without allocating; the
// net-weight storage is kept only while the levels are weighted.
// dst must not be h. On error dst is left unchanged.
//
// The CSR assembly runs on pool (nil is the one-wide inline pool). The
// expensive parts — per-net pin dedup + sort, and the cell→net fill —
// decompose over fixed fine-net ranges with no ordering decisions left
// to scheduling:
//
//  1. Each worker assembles the kept coarse nets of its own net range
//     into private buffers (private dedup stamps, private per-cluster
//     pin counts). Ranges are contiguous and ascending, so
//     concatenating the per-worker outputs in range-index order
//     reproduces fine-net order exactly.
//  2. The merge (memcopy in range order on the calling goroutine)
//     materializes the net→pin CSR; the cell→net CSR then comes from a
//     two-phase count-then-fill: per-cluster counts are summed across
//     workers and prefix-summed into cellStart, each worker's counts
//     are turned into private fill cursors (cellStart[p] plus the
//     counts of all lower-indexed workers), and the fill runs over the
//     net ranges again, each worker writing its own nets into its own
//     cursor windows.
//
// Every parallel write lands in a worker-owned buffer or cursor
// window, and every merge happens in range-index order, so the result
// is the same for every worker count (pinned by
// TestInduceWSParIdenticalToSerial).
func InduceInto(h *Hypergraph, c *Clustering, ws *InduceWorkspace, pool *intrapar.Pool, dst *Hypergraph) (*Hypergraph, error) {
	if ws == nil {
		ws = &InduceWorkspace{}
	}
	if err := c.validate(h.NumCells(), &ws.seen); err != nil {
		return nil, err
	}
	k := c.NumClusters
	old := *dst
	*dst = Hypergraph{
		numCells: k,
		// Clusters partition the cells, so the coarse total is exactly
		// the fine total (already overflow-checked at fine build time).
		totalArea: h.totalArea,
	}
	hh := dst

	// Cluster areas are retained by the result. The scatter pattern
	// (area[cluster] += ...) does not range-decompose without
	// per-worker copies of the whole array, and it is a cheap O(cells)
	// pass — keep it on the calling goroutine. A reused dst holds an
	// earlier level's areas, so the sums start from an explicit clear.
	area := Resize(old.area, k)
	clear(area)
	hh.area = area
	for v := 0; v < h.NumCells(); v++ {
		area[c.CellToCluster[v]] += h.Area(v)
	}

	numFine := h.NumNets()
	workers := pool.Workers()
	ws.grow(workers, k, numFine, h.NumPins())
	ws.cur = induceState{h: h, c: c}

	// Phase 1: per-range net assembly into private buffers.
	pool.Run(numFine, ws.assembleFn)
	// Run issues min(workers, numFine) ranges; the rest contribute
	// nothing but their buffers may hold stale content from a larger
	// earlier call.
	used := min(workers, numFine)
	ws.cur.used = used

	// Merge in range-index order = fine-net order: sizes first, then
	// one contiguous copy per range.
	numNets, totalPins := 0, 0
	weighted := false
	for w := 0; w < used; w++ {
		ws.bases[w] = numNets
		numNets += len(ws.lens[w])
		totalPins += len(ws.pins[w])
		for _, wt := range ws.weights[w] {
			if wt != 1 {
				weighted = true
				break
			}
		}
	}
	hh.numNets = numNets
	for v, a := range area {
		if v == 0 || a < hh.minArea {
			hh.minArea = a
		}
		if a > hh.maxArea {
			hh.maxArea = a
		}
	}
	// The loop below writes netStart from index 1 on, and the copies
	// fill netPins and netWeight in full.
	hh.netStart = Resize(old.netStart, numNets+1)
	hh.netPins = Resize(old.netPins, totalPins)
	hh.netStart[0] = 0
	if weighted {
		hh.netWeight = Resize(old.netWeight, numNets)
	}
	net, pin := 0, 0
	for w := 0; w < used; w++ {
		copy(hh.netPins[pin:], ws.pins[w])
		if weighted {
			copy(hh.netWeight[net:], ws.weights[w])
		}
		for _, l := range ws.lens[w] {
			pin += int(l)
			//mllint:ignore unchecked-narrow coarse pin total ≤ fine pin total, which Build/parse already capped at MaxInt32
			hh.netStart[net+1] = int32(pin)
			net++
		}
	}
	ws.cur.hh = hh

	// Cell→net CSR, two-phase count-then-fill. Counts per cluster were
	// accumulated per range in phase 1; sum them into cellStart (the
	// scatter decomposes over *clusters* now, so this is parallel and
	// write-disjoint), prefix-sum serially, then turn each range's
	// counts into its private fill cursors: cellStart[p] plus the
	// counts of all lower-indexed ranges.
	// sumCounts writes cellStart from index 1 on.
	hh.cellStart = Resize(old.cellStart, k+1)
	hh.cellStart[0] = 0
	pool.Run(k, ws.sumFn)
	for v := 0; v < k; v++ {
		hh.cellStart[v+1] += hh.cellStart[v]
	}
	pool.Run(k, ws.cursorFn)

	// Phase 2: parallel fill. Range w owns coarse nets
	// [bases[w], bases[w]+len(lens[w])) and writes each of its pins at
	// its own cursor — cursor windows of different ranges are disjoint
	// by construction, and within a range nets are visited in ascending
	// order, so each cell's net list comes out in net order. Run is
	// keyed on numFine again so the range indices match phase 1.
	hh.cellNets = Resize(old.cellNets, totalPins)
	pool.Run(numFine, ws.fillFn)
	ws.cur = induceState{}
	return hh, nil
}

// assemble is phase 1 for the fine nets [lo, hi): it dedups, sorts and
// keeps each net's coarse pins, and counts pins per cluster. The
// stamp value is the global fine-net id, unique across ranges, so
// stale stamps from earlier calls are cleared first. The range writes
// its windows of the shared buffers, which the fine pin and net
// counts of [lo, hi) bound, so the appends never reallocate.
func (ws *InduceWorkspace) assemble(w, lo, hi int) {
	h, c := ws.cur.h, ws.cur.c
	mark, counts := ws.mark[w], ws.counts[w]
	for i := range mark {
		mark[i] = -1
		counts[i] = 0
	}
	p0, p1 := h.netStart[lo], h.netStart[hi]
	pins := ws.pinBuf[p0:p0:p1]
	lens := ws.lenBuf[lo:lo:hi]
	weights := ws.weightBuf[lo:lo:hi]
	for e := lo; e < hi; e++ {
		base := len(pins)
		for _, p := range h.Pins(e) {
			kk := c.CellToCluster[p]
			if mark[kk] != int32(e) {
				mark[kk] = int32(e)
				pins = append(pins, kk)
			}
		}
		if len(pins)-base < 2 {
			// |e*| = 1: dropped per Definition 1 / the net definition.
			pins = pins[:base]
			continue
		}
		sortPinWindow(pins[base:])
		for _, p := range pins[base:] {
			counts[p]++
		}
		//mllint:ignore unchecked-narrow one net's pin window ≤ cluster count ≤ fine cell count, capped at MaxInt32 by Build/parse
		lens = append(lens, int32(len(pins)-base))
		weights = append(weights, h.NetWeight(e))
	}
	ws.pins[w], ws.lens[w], ws.weights[w] = pins, lens, weights
}

// sumCounts writes each cluster's pin total over all ranges into
// cellStart[p+1] for the clusters [lo, hi).
func (ws *InduceWorkspace) sumCounts(_, lo, hi int) {
	cellStart := ws.cur.hh.cellStart
	for p := lo; p < hi; p++ {
		var s int32
		for w := 0; w < ws.cur.used; w++ {
			s += ws.counts[w][p]
		}
		cellStart[p+1] = s
	}
}

// toCursors turns the per-range counts of the clusters [lo, hi) into
// fill cursors: cellStart[p] plus the counts of all lower ranges.
func (ws *InduceWorkspace) toCursors(_, lo, hi int) {
	cellStart := ws.cur.hh.cellStart
	for p := lo; p < hi; p++ {
		run := cellStart[p]
		for w := 0; w < ws.cur.used; w++ {
			cnt := ws.counts[w][p]
			ws.counts[w][p] = run
			run += cnt
		}
	}
}

// fill is phase 2 for range w: it writes the range's coarse nets into
// the cell→net CSR at the range's own cursors.
func (ws *InduceWorkspace) fill(w, _, _ int) {
	hh, cur := ws.cur.hh, ws.counts[w]
	for i := range ws.lens[w] {
		e := ws.bases[w] + i
		for _, p := range hh.netPins[hh.netStart[e]:hh.netStart[e+1]] {
			//mllint:ignore unchecked-narrow coarse net index ≤ fine net count, capped at MaxInt32 by Build/parse
			hh.cellNets[cur[p]] = int32(e)
			cur[p]++
		}
	}
}

// sortPinWindow sorts one net's pin window ascending, in place and
// without allocating: insertion sort for the short lists coarsening
// overwhelmingly produces, in-place heapsort beyond that. Pins are
// distinct (mark-stamp dedup), so any correct sort yields the same
// sequence Builder's sort.Slice would.
func sortPinWindow(a []int32) {
	if len(a) <= 24 {
		for i := 1; i < len(a); i++ {
			v := a[i]
			j := i - 1
			for j >= 0 && a[j] > v {
				a[j+1] = a[j]
				j--
			}
			a[j+1] = v
		}
		return
	}
	// Heapsort: no recursion, no scratch.
	n := len(a)
	for i := n/2 - 1; i >= 0; i-- {
		siftDownPins(a, i, n)
	}
	for end := n - 1; end > 0; end-- {
		a[0], a[end] = a[end], a[0]
		siftDownPins(a, 0, end)
	}
}

func siftDownPins(a []int32, root, end int) {
	for {
		child := 2*root + 1
		if child >= end {
			return
		}
		if child+1 < end && a[child+1] > a[child] {
			child++
		}
		if a[root] >= a[child] {
			return
		}
		a[root], a[child] = a[child], a[root]
		root = child
	}
}
