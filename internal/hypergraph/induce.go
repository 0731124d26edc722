package hypergraph

import (
	"mlpart/internal/intrapar"
)

// InduceWorkspace holds the scratch memory of InduceInto: the
// assembly buffers, the dedup stamps, and the clustering check's
// occupancy flags. Threading one workspace through the induce calls of
// a multilevel run reduces each level's allocations to the arrays the
// returned Hypergraph actually retains (the struct, areas, the two CSR
// directions, optional weights), and a reused destination Hypergraph
// per level removes those too. With InduceShared the levels retain no
// cell side: the workspace holds one, for the level in use.
//
// Sizing contract: every buffer reaches its final size at the first
// (finest) call and never grows again while the run coarsens. The
// assembly buffers are sized from the fine netlist, not grown by
// appending, since a coarse net never keeps more pins than its fine
// net. Stamps and flags are sized by the cluster count, which only
// shrinks level by level, and the shared cell offsets by the largest
// level lent the cell side. A workspace reused on a larger input (a
// Session's Scratch moving on to a bigger job) grows once, on its
// first call for that input.
//
// Ownership rule: an InduceWorkspace belongs to exactly one goroutine
// and one pipeline attempt at a time; never store one in a package
// level variable or share it across concurrent attempts. The zero
// value is ready to use.
type InduceWorkspace struct {
	mark    []int32 // per cluster: the fine net that last kept it
	ends    []int32 // per kept net: end of its pins, as many as the fine nets
	weights []int32 // per kept net: its weight
	seen    []bool  // clustering check: cluster occupied

	// pins stages the kept coarse pins during a call and is as long as
	// the fine pins. Between calls it and cellStart are the shared cell
	// side, lent to holder, so a hierarchy keeps one cell side for the
	// level in use instead of one per level.
	pins      []int32
	cellStart []int32
	holder    *Hypergraph
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
// (the area sums, netStart[0] and the cell counts are explicit
// clears).
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
	old, err := induceNets(h, c, ws, dst)
	if err != nil {
		return nil, err
	}
	dst.buildCellSide(old.cellStart, old.cellNets)
	return dst, nil
}

// InduceShared is InduceInto, except that dst keeps only the areas,
// the net side and the weights: its cell side is ws's shared one,
// lent to dst until the next InduceInto, InduceShared or
// RestoreCellSide on ws takes it back. A level whose cell side was
// taken back has none (Nets and Degree panic, Validate fails) until
// RestoreCellSide rebuilds it. The multilevel driver reads only the
// cell side of the level it matches or refines, so its hierarchy
// keeps one cell side in all instead of one per level.
//
// The lent cell side is the staging buffer the next call writes the
// coarse pins to, which is why the call takes it back first. Apart
// from where the cell side lives, dst is what InduceInto returns.
func InduceShared(h *Hypergraph, c *Clustering, ws *InduceWorkspace, dst *Hypergraph) (*Hypergraph, error) {
	if _, err := induceNets(h, c, ws, dst); err != nil {
		return nil, err
	}
	ws.lend(dst)
	return dst, nil
}

// RestoreCellSide gives h a cell side again if it has none: it
// rebuilds the cell side from h's net side into ws's shared storage,
// taking that storage back from the level holding it. The result is
// the cell side InduceInto would have built. A hypergraph with a cell
// side, its own or the lent one, is left as is.
func (ws *InduceWorkspace) RestoreCellSide(h *Hypergraph) {
	if h.cellStart == nil {
		ws.lend(h)
	}
}

// OwnCellSide gives h a cell side in new arrays of its own, rebuilt
// from its net side, so that h outlives ws: a level holding ws's
// shared cell side stops holding it, and a level without one gets one.
func (ws *InduceWorkspace) OwnCellSide(h *Hypergraph) {
	if ws.holder == h {
		ws.holder = nil
	}
	h.buildCellSide(nil, nil)
}

// lend builds h's cell side into the shared storage and makes h its
// holder.
func (ws *InduceWorkspace) lend(h *Hypergraph) {
	ws.takeBack()
	h.buildCellSide(ws.cellStart, ws.pins)
	ws.cellStart, ws.pins, ws.holder = h.cellStart, h.cellNets, h
}

// takeBack removes the shared cell side from its holder, which is left
// with none, before the storage is overwritten.
func (ws *InduceWorkspace) takeBack() {
	if ws.holder != nil {
		ws.holder.cellStart, ws.holder.cellNets = nil, nil
		ws.holder = nil
	}
}

// induceNets is InduceInto up to the cell side: it writes the areas,
// the net side and the weights of the coarse hypergraph into dst,
// whose cell side it leaves nil, and returns the arrays dst held
// before. dst is unchanged on error.
func induceNets(h *Hypergraph, c *Clustering, ws *InduceWorkspace, dst *Hypergraph) (Hypergraph, error) {
	if err := c.validate(h.NumCells(), &ws.seen); err != nil {
		return Hypergraph{}, err
	}
	// The staging below overwrites the shared cell side. Taking it
	// back first also keeps a dst that held it from reusing it as its
	// own.
	ws.takeBack()
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
	// them with the net id and sorted, go to the workspace. The
	// buffers hold the fine netlist's counts, so the appends never
	// reallocate.
	mark := Resize(ws.mark, k)
	for i := range mark {
		mark[i] = -1
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
		//mllint:ignore unchecked-narrow coarse pin total ≤ fine pin total, which Build/parse already capped at MaxInt32
		ends = append(ends, int32(len(pins)))
		w := h.NetWeight(e)
		weights = append(weights, w)
		weighted = weighted || w != 1
	}
	ws.mark, ws.pins, ws.ends, ws.weights = mark, pins, ends, weights

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
	return old, nil
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
