package hypergraph

import (
	"mlpart/internal/intrapar"
)

// InduceWorkspace holds the scratch memory of InduceWSPar: one set of
// assembly buffers per pool worker, indexed by the pool's range index.
// Threading one workspace through the induce calls of a multilevel run
// reduces each level's allocations to the arrays the returned
// Hypergraph actually retains (areas, the two CSR directions, optional
// weights).
//
// Ownership rule: an InduceWorkspace belongs to exactly one goroutine
// and one pipeline attempt at a time; never store one in a package
// level variable or share it across concurrent attempts. The zero
// value is ready to use.
type InduceWorkspace struct {
	mark    [][]int32 // per worker: cluster dedup stamps
	pins    [][]int32 // per worker: kept coarse pins, concatenated
	lens    [][]int32 // per worker: pin count per kept net
	weights [][]int32 // per worker: weight per kept net
	counts  [][]int32 // per worker: per-cluster pin counts → fill cursors
}

// grow sizes the scratch for the given worker count and cluster count.
// Stamps and counts are (re)initialized by the workers themselves at
// the start of each call.
func (s *InduceWorkspace) grow(workers, k int) {
	for len(s.mark) < workers {
		s.mark = append(s.mark, nil)
		s.pins = append(s.pins, nil)
		s.lens = append(s.lens, nil)
		s.weights = append(s.weights, nil)
		s.counts = append(s.counts, nil)
	}
	for w := 0; w < workers; w++ {
		if cap(s.mark[w]) < k {
			s.mark[w] = make([]int32, k)
		}
		s.mark[w] = s.mark[w][:k]
		if cap(s.counts[w]) < k {
			s.counts[w] = make([]int32, k)
		}
		s.counts[w] = s.counts[w][:k]
	}
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
// allocates scratch per call.
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
func InduceWSPar(h *Hypergraph, c *Clustering, ws *InduceWorkspace, pool *intrapar.Pool) (*Hypergraph, error) {
	if err := c.Validate(h.NumCells()); err != nil {
		return nil, err
	}
	if ws == nil {
		ws = &InduceWorkspace{}
	}
	k := c.NumClusters

	// Cluster areas are retained by the result: allocate fresh. The
	// scatter pattern (area[cluster] += ...) does not range-decompose
	// without per-worker copies of the whole array, and it is a cheap
	// O(cells) pass — keep it on the calling goroutine.
	area := make([]int64, k)
	for v := 0; v < h.NumCells(); v++ {
		area[c.CellToCluster[v]] += h.Area(v)
	}

	workers := pool.Workers()
	ws.grow(workers, k)

	// Phase 1: per-range net assembly into private buffers. The stamp
	// value is the global fine-net id, unique across ranges, so stale
	// stamps from earlier calls must be cleared first (each worker
	// clears its own arrays).
	numFine := h.NumNets()
	pool.Run(numFine, func(w, lo, hi int) {
		mark, counts := ws.mark[w], ws.counts[w]
		for i := range mark {
			mark[i] = -1
			counts[i] = 0
		}
		pins := ws.pins[w][:0]
		lens := ws.lens[w][:0]
		weights := ws.weights[w][:0]
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
	})
	// Run issues min(workers, numFine) ranges; the rest contribute
	// nothing but their buffers may hold stale content from a larger
	// earlier call.
	used := workers
	if numFine < used {
		used = numFine
	}

	// Merge in range-index order = fine-net order: sizes first, then
	// one contiguous copy per range.
	numNets, totalPins := 0, 0
	weighted := false
	for w := 0; w < used; w++ {
		numNets += len(ws.lens[w])
		totalPins += len(ws.pins[w])
		for _, wt := range ws.weights[w] {
			if wt != 1 {
				weighted = true
				break
			}
		}
	}
	hh := &Hypergraph{
		numCells: k,
		numNets:  numNets,
		area:     area,
		// Clusters partition the cells, so the coarse total is exactly
		// the fine total (already overflow-checked at fine build time).
		totalArea: h.totalArea,
	}
	for v, a := range area {
		if v == 0 || a < hh.minArea {
			hh.minArea = a
		}
		if a > hh.maxArea {
			hh.maxArea = a
		}
	}
	hh.netStart = make([]int32, numNets+1)
	hh.netPins = make([]int32, totalPins)
	if weighted {
		hh.netWeight = make([]int32, numNets)
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

	// Cell→net CSR, two-phase count-then-fill. Counts per cluster were
	// accumulated per range in phase 1; sum them into cellStart (the
	// scatter decomposes over *clusters* now, so this is parallel and
	// write-disjoint), prefix-sum serially, then turn each range's
	// counts into its private fill cursors: cellStart[p] plus the
	// counts of all lower-indexed ranges.
	hh.cellStart = make([]int32, k+1)
	pool.Run(k, func(_, lo, hi int) {
		for p := lo; p < hi; p++ {
			var s int32
			for w := 0; w < used; w++ {
				s += ws.counts[w][p]
			}
			hh.cellStart[p+1] = s
		}
	})
	for v := 0; v < k; v++ {
		hh.cellStart[v+1] += hh.cellStart[v]
	}
	pool.Run(k, func(_, lo, hi int) {
		for p := lo; p < hi; p++ {
			run := hh.cellStart[p]
			for w := 0; w < used; w++ {
				cnt := ws.counts[w][p]
				ws.counts[w][p] = run
				run += cnt
			}
		}
	})

	// Phase 2: parallel fill. Range w owns coarse nets
	// [netBase_w, netBase_w+len(lens_w)) and writes each of its pins at
	// its own cursor — cursor windows of different ranges are disjoint
	// by construction, and within a range nets are visited in ascending
	// order, so each cell's net list comes out in net order. Run is keyed on numFine again so the
	// range indices match phase 1.
	hh.cellNets = make([]int32, totalPins)
	netBase := 0
	bases := make([]int, used)
	for w := 0; w < used; w++ {
		bases[w] = netBase
		netBase += len(ws.lens[w])
	}
	pool.Run(numFine, func(w, lo, hi int) {
		cur := ws.counts[w]
		for i := range ws.lens[w] {
			e := bases[w] + i
			for _, p := range hh.netPins[hh.netStart[e]:hh.netStart[e+1]] {
				//mllint:ignore unchecked-narrow coarse net index ≤ fine net count, capped at MaxInt32 by Build/parse
				hh.cellNets[cur[p]] = int32(e)
				cur[p]++
			}
		}
	})
	return hh, nil
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
