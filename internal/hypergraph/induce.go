package hypergraph

import (
	"mlpart/internal/intrapar"
)

// InduceWorkspace holds the scratch memory of InduceInto: the
// assembly buffers, the dedup stamps and fill cursors, and the
// clustering check's occupancy flags. Threading one workspace through
// the induce calls of a multilevel run reduces each level's
// allocations to the arrays the returned Hypergraph actually retains
// (the struct, areas, the two CSR directions, optional weights), and a
// reused destination Hypergraph per level removes those too.
//
// Sizing contract: every buffer reaches its final size at the first
// (finest) call and never grows again while the run coarsens. The
// assembly buffers are sized from the fine netlist, not grown by
// appending, since a coarse net never keeps more pins than its fine
// net. Stamps, cursors and flags are sized by the cluster count, which
// only shrinks level by level. A workspace reused on a larger input (a
// Session's Scratch moving on to a bigger job) grows once, on its
// first call for that input.
//
// Ownership rule: an InduceWorkspace belongs to exactly one goroutine
// and one pipeline attempt at a time; never store one in a package
// level variable or share it across concurrent attempts. The zero
// value is ready to use.
type InduceWorkspace struct {
	mark    []int32 // per cluster: the fine net that last kept it
	counts  []int32 // per cluster: pin count, then fill cursor
	pins    []int32 // kept coarse pins, as long as the fine pins
	ends    []int32 // per kept net: end of its pins, as many as the fine nets
	weights []int32 // per kept net: its weight
	seen    []bool  // clustering check: cluster occupied
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

// InduceInto constructs the coarser hypergraph H_{i+1} induced by a
// clustering P^k of H_i into dst, which it returns, exactly following
// Definition 1 of the paper: every net e of H_i becomes the net e*
// spanning the set of clusters containing modules of e, unless
// |e*| = 1, in which case it is dropped. Cluster areas are the sums of
// their member areas. Parallel nets are kept (each contributes to the
// cut separately, as in the paper); MergeParallelNets is the optional
// post-step that merges them.
//
// The result is byte-identical to building the coarse netlist through
// Builder: nets keep fine-net order, pins are sorted ascending and
// deduplicated, coarse nets with fewer than two pins are dropped, and
// the weighted flag is set iff any kept net has weight ≠ 1. It is
// independent of ws, so reusing the workspace for the next level never
// aliases a returned hypergraph; nil ws allocates scratch per call.
//
// The arrays dst holds are the storage: each grows only, to the exact
// length this level needs, and is rewritten in full before it is read
// (the area sums, netStart[0] and cellStart[0] are explicit clears).
// Every field of dst is overwritten, so nothing of the hypergraph it
// held before — its areas, weights, names — carries over. A
// multilevel run that keeps one Hypergraph per level rebuilds a
// hierarchy of the same or smaller size without allocating; the
// net-weight storage is kept only while the levels are weighted.
// dst must not be h. On error dst is left unchanged.
func InduceInto(h *Hypergraph, c *Clustering, ws *InduceWorkspace, dst *Hypergraph) (*Hypergraph, error) {
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

	// A reused dst holds an earlier level's areas, so the sums start
	// from an explicit clear.
	area := Resize(old.area, k)
	clear(area)
	hh.area = area
	for v := 0; v < h.NumCells(); v++ {
		area[c.CellToCluster[v]] += h.Area(v)
	}
	for v, a := range area {
		if v == 0 || a < hh.minArea {
			hh.minArea = a
		}
		if a > hh.maxArea {
			hh.maxArea = a
		}
	}

	// Net→pin CSR: each fine net's clusters, deduplicated by stamping
	// them with the net id and sorted, go to the workspace, and the
	// per-cluster pin counts with them. The buffers hold the fine
	// netlist's counts, so the appends never reallocate.
	mark, counts := Resize(ws.mark, k), Resize(ws.counts, k)
	for i := range mark {
		mark[i] = -1
		counts[i] = 0
	}
	pins := Resize(ws.pins, h.NumPins())[:0]
	ends := Resize(ws.ends, h.NumNets())[:0]
	weights := Resize(ws.weights, h.NumNets())[:0]
	weighted := false
	for e := 0; e < h.NumNets(); e++ {
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
		//mllint:ignore unchecked-narrow coarse pin total ≤ fine pin total, which Build/parse already capped at MaxInt32
		ends = append(ends, int32(len(pins)))
		w := h.NetWeight(e)
		weights = append(weights, w)
		weighted = weighted || w != 1
	}
	ws.mark, ws.counts, ws.pins, ws.ends, ws.weights = mark, counts, pins, ends, weights

	numNets := len(ends)
	hh.numNets = numNets
	hh.netStart = Resize(old.netStart, numNets+1)
	hh.netStart[0] = 0
	copy(hh.netStart[1:], ends)
	hh.netPins = Resize(old.netPins, len(pins))
	copy(hh.netPins, pins)
	if weighted {
		hh.netWeight = Resize(old.netWeight, numNets)
		copy(hh.netWeight, weights)
	}

	// Cell→net CSR: prefix-sum the pin counts into cellStart, turn each
	// count into its cluster's fill cursor, and fill in net order, so
	// each cell's net list comes out ascending.
	hh.cellStart = Resize(old.cellStart, k+1)
	hh.cellStart[0] = 0
	for p, n := range counts {
		hh.cellStart[p+1] = hh.cellStart[p] + n
		counts[p] = hh.cellStart[p]
	}
	hh.cellNets = Resize(old.cellNets, len(pins))
	for e := 0; e < numNets; e++ {
		for _, p := range hh.netPins[hh.netStart[e]:hh.netStart[e+1]] {
			//mllint:ignore unchecked-narrow coarse net index ≤ fine net count, capped at MaxInt32 by Build/parse
			hh.cellNets[counts[p]] = int32(e)
			counts[p]++
		}
	}
	return hh, nil
}

// InduceWSPar is InduceInto into a new Hypergraph; the pool is ignored.
//
// Deprecated: use InduceInto. The next benchmark change removes it.
func InduceWSPar(h *Hypergraph, c *Clustering, ws *InduceWorkspace, _ *intrapar.Pool) (*Hypergraph, error) {
	return InduceInto(h, c, ws, &Hypergraph{})
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
