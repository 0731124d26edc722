// Package hypergraph implements the netlist hypergraph H(V, E) of
// Alpert/Huang/Kahng, "Multilevel Circuit Partitioning" (DAC 1997),
// together with clusterings, induced (coarsened) hypergraphs,
// partitions, projections, cut metrics, and file I/O.
//
// A netlist hypergraph has n modules (cells) and a set of nets; each
// net is a subset of the modules with size greater than one. Modules
// carry integer areas. The representation is CSR (compressed sparse
// row) in both directions — net→pins and cell→nets — so that
// golem3-scale instances (10^5 cells, 3×10^5 pins) stay
// allocation-light and cache-friendly. The cell→net direction is
// derived from the net→pins one, so a multilevel run may keep a coarse
// level's net side only and rebuild its cell side when the level is
// used again (InduceShared, RestoreCellSide).
package hypergraph

import (
	"fmt"
)

// Hypergraph is an immutable netlist hypergraph. Construct one with a
// Builder, with Induce, or by reading a file. The zero value is an
// empty hypergraph with no cells and no nets.
type Hypergraph struct {
	numCells int
	numNets  int

	area      []int64 // per-cell area, len numCells
	totalArea int64
	minArea   int64
	maxArea   int64

	// net -> pins (cells), CSR
	netStart []int32 // len numNets+1
	netPins  []int32 // len numPins

	// cell -> incident nets, CSR, each cell's nets ascending; both nil
	// while an InduceWorkspace has lent this level's cell side to
	// another level
	cellStart []int32 // len numCells+1
	cellNets  []int32 // len numPins

	// netWeight holds per-net integer weights; nil means every net
	// has weight 1 (the paper's unweighted model). Weights arise from
	// weighted input files and from merging parallel nets during
	// coarsening (MergeParallelNets).
	netWeight []int32

	names []string // optional cell names; nil or len numCells
}

// NetWeight returns the weight of net e (1 if unweighted).
func (h *Hypergraph) NetWeight(e int) int32 {
	if h.netWeight == nil {
		return 1
	}
	return h.netWeight[e]
}

// Weighted reports whether any net has weight ≠ 1.
func (h *Hypergraph) Weighted() bool { return h.netWeight != nil }

// TotalNetWeight returns the sum of all net weights.
func (h *Hypergraph) TotalNetWeight() int64 {
	if h.netWeight == nil {
		return int64(h.numNets)
	}
	var total int64
	for _, w := range h.netWeight {
		total += int64(w)
	}
	return total
}

// MaxWeightedDegree returns the maximum over cells of the summed
// weights of incident nets with at most maxNetSize pins (0 = no
// limit) — the bound on weighted FM gains.
func (h *Hypergraph) MaxWeightedDegree(maxNetSize int) int {
	maxd := 0
	for v := 0; v < h.numCells; v++ {
		d := 0
		for _, e := range h.Nets(v) {
			if maxNetSize > 0 && h.NetSize(int(e)) > maxNetSize {
				continue
			}
			d += int(h.NetWeight(int(e)))
		}
		if d > maxd {
			maxd = d
		}
	}
	return maxd
}

// NumCells returns the number of modules |V|.
func (h *Hypergraph) NumCells() int { return h.numCells }

// NumNets returns the number of nets |E|.
func (h *Hypergraph) NumNets() int { return h.numNets }

// NumPins returns the total number of pins, i.e. the sum of net sizes.
func (h *Hypergraph) NumPins() int { return len(h.netPins) }

// Pins returns the cells of net e as a shared slice; callers must not
// modify it.
func (h *Hypergraph) Pins(e int) []int32 {
	return h.netPins[h.netStart[e]:h.netStart[e+1]]
}

// Nets returns the nets incident to cell v as a shared slice; callers
// must not modify it.
func (h *Hypergraph) Nets(v int) []int32 {
	return h.cellNets[h.cellStart[v]:h.cellStart[v+1]]
}

// buildCellSide derives the cell→net CSR from the net side into start
// and nets, grown as Resize grows them, and installs them in h. It
// counts each cell's nets into start, turns the counts into running
// ends, then fills from the last net back with start itself as the
// cursor, which leaves each start[v] at v's first slot and v's nets in
// increasing order: the layout Builder and InduceInto produce.
func (h *Hypergraph) buildCellSide(start, nets []int32) {
	start = Resize(start, h.numCells+1)
	clear(start)
	for _, p := range h.netPins {
		start[p]++
	}
	for v := 1; v <= h.numCells; v++ {
		start[v] += start[v-1]
	}
	nets = Resize(nets, len(h.netPins))
	for e := h.numNets - 1; e >= 0; e-- {
		for _, p := range h.Pins(e) {
			start[p]--
			//mllint:ignore unchecked-narrow net index < numNets, capped at MaxInt32 by Build/parse
			nets[start[p]] = int32(e)
		}
	}
	h.cellStart, h.cellNets = start, nets
}

// NetSize returns |e|, the number of pins on net e.
func (h *Hypergraph) NetSize(e int) int {
	return int(h.netStart[e+1] - h.netStart[e])
}

// Degree returns the number of nets incident to cell v.
func (h *Hypergraph) Degree(v int) int {
	return int(h.cellStart[v+1] - h.cellStart[v])
}

// Area returns the area A(v) of cell v.
func (h *Hypergraph) Area(v int) int64 { return h.area[v] }

// TotalArea returns A(V), the sum of all cell areas.
func (h *Hypergraph) TotalArea() int64 { return h.totalArea }

// MaxCellArea returns max_v A(v), used in the balance bound of
// §III.B; it is 0 for an empty hypergraph.
func (h *Hypergraph) MaxCellArea() int64 { return h.maxArea }

// MinCellArea returns min_v A(v); it is 0 for an empty hypergraph.
// The refiners use it to skip a block no cell can leave or enter
// within the balance bound.
func (h *Hypergraph) MinCellArea() int64 { return h.minArea }

// Name returns the name of cell v, or "c<v>" if names were not set.
func (h *Hypergraph) Name(v int) string {
	if h.names != nil && h.names[v] != "" {
		return h.names[v]
	}
	return fmt.Sprintf("c%d", v)
}

// HasNames reports whether explicit cell names were attached.
func (h *Hypergraph) HasNames() bool { return h.names != nil }

// MaxDegree returns the maximum cell degree, counting only nets with
// at most maxNetSize pins (0 means no limit). This bounds FM gains.
func (h *Hypergraph) MaxDegree(maxNetSize int) int {
	maxd := 0
	for v := 0; v < h.numCells; v++ {
		d := 0
		for _, e := range h.Nets(v) {
			if maxNetSize > 0 && h.NetSize(int(e)) > maxNetSize {
				continue
			}
			d++
		}
		if d > maxd {
			maxd = d
		}
	}
	return maxd
}

// String returns a short human-readable summary.
func (h *Hypergraph) String() string {
	return fmt.Sprintf("hypergraph{cells: %d, nets: %d, pins: %d, area: %d}",
		h.numCells, h.numNets, h.NumPins(), h.totalArea)
}

// Stats summarises size characteristics in the format of Table I.
type Stats struct {
	Cells   int
	Nets    int
	Pins    int
	AvgNet  float64 // average net size
	AvgDeg  float64 // average cell degree
	MaxNet  int
	MaxDeg  int
	MinArea int64
	MaxArea int64
}

// ComputeStats returns the Table-I style size characteristics of h.
func (h *Hypergraph) ComputeStats() Stats {
	s := Stats{Cells: h.numCells, Nets: h.numNets, Pins: h.NumPins()}
	if h.numNets > 0 {
		s.AvgNet = float64(s.Pins) / float64(s.Nets)
	}
	if h.numCells > 0 {
		s.AvgDeg = float64(s.Pins) / float64(s.Cells)
		s.MinArea = h.area[0]
	}
	for e := 0; e < h.numNets; e++ {
		if n := h.NetSize(e); n > s.MaxNet {
			s.MaxNet = n
		}
	}
	for v := 0; v < h.numCells; v++ {
		if d := h.Degree(v); d > s.MaxDeg {
			s.MaxDeg = d
		}
		if a := h.area[v]; a < s.MinArea {
			s.MinArea = a
		} else if a > s.MaxArea {
			s.MaxArea = a
		}
	}
	if s.MaxArea < s.MinArea {
		s.MaxArea = s.MinArea
	}
	return s
}

// Validate checks internal consistency of the CSR arrays. It is meant
// for tests and for data read from files; construction via Builder or
// Induce always yields a valid hypergraph.
func (h *Hypergraph) Validate() error {
	if len(h.area) != h.numCells {
		return fmt.Errorf("hypergraph: area len %d != cells %d", len(h.area), h.numCells)
	}
	if len(h.netStart) != h.numNets+1 {
		return fmt.Errorf("hypergraph: netStart len %d != nets+1 %d", len(h.netStart), h.numNets+1)
	}
	if len(h.cellStart) != h.numCells+1 {
		return fmt.Errorf("hypergraph: cellStart len %d != cells+1 %d", len(h.cellStart), h.numCells+1)
	}
	if len(h.netPins) != len(h.cellNets) {
		return fmt.Errorf("hypergraph: pin arrays disagree: %d vs %d", len(h.netPins), len(h.cellNets))
	}
	var total, minA, maxA int64
	for v, a := range h.area {
		if a < 0 {
			return fmt.Errorf("hypergraph: cell %d has negative area %d", v, a)
		}
		total += a
		if v == 0 || a < minA {
			minA = a
		}
		if a > maxA {
			maxA = a
		}
	}
	if total != h.totalArea {
		return fmt.Errorf("hypergraph: totalArea %d != sum %d", h.totalArea, total)
	}
	if maxA != h.maxArea {
		return fmt.Errorf("hypergraph: maxArea %d != actual %d", h.maxArea, maxA)
	}
	if minA != h.minArea {
		return fmt.Errorf("hypergraph: minArea %d != actual %d", h.minArea, minA)
	}
	// stamp[v] is the last net seen to list v.
	stamp := make([]int32, h.numCells)
	for v := range stamp {
		stamp[v] = -1
	}
	for e := 0; e < h.numNets; e++ {
		if h.netStart[e] > h.netStart[e+1] {
			return fmt.Errorf("hypergraph: netStart not monotone at %d", e)
		}
		pins := h.Pins(e)
		if len(pins) < 2 {
			return fmt.Errorf("hypergraph: net %d has %d pins; nets must have size > 1", e, len(pins))
		}
		for _, p := range pins {
			if p < 0 || int(p) >= h.numCells {
				return fmt.Errorf("hypergraph: net %d references cell %d out of range", e, p)
			}
			if stamp[p] == int32(e) {
				return fmt.Errorf("hypergraph: net %d has duplicate pin %d", e, p)
			}
			stamp[p] = int32(e)
		}
	}
	// Cross-check cell->net direction against net->cell: each cell
	// lists exactly the nets that hold it, strictly ascending. With the
	// degrees right, walking the nets in order must meet each cell's
	// list entry by entry, count serving as each cell's cursor.
	if h.cellStart[0] != 0 {
		return fmt.Errorf("hypergraph: cellStart[0] = %d, want 0", h.cellStart[0])
	}
	count := make([]int32, h.numCells)
	for e := 0; e < h.numNets; e++ {
		for _, p := range h.Pins(e) {
			count[p]++
		}
	}
	for v := 0; v < h.numCells; v++ {
		if h.Degree(v) != int(count[v]) {
			return fmt.Errorf("hypergraph: cell %d degree %d != pin count %d", v, h.Degree(v), count[v])
		}
	}
	copy(count, h.cellStart)
	for e := 0; e < h.numNets; e++ {
		for _, p := range h.Pins(e) {
			if got := h.cellNets[count[p]]; got != int32(e) {
				return fmt.Errorf("hypergraph: cell %d lists net %d where net %d belongs; a cell lists the nets holding it, strictly ascending", p, got, e)
			}
			count[p]++
		}
	}
	if h.names != nil && len(h.names) != h.numCells {
		return fmt.Errorf("hypergraph: names len %d != cells %d", len(h.names), h.numCells)
	}
	if h.netWeight != nil {
		if len(h.netWeight) != h.numNets {
			return fmt.Errorf("hypergraph: netWeight len %d != nets %d", len(h.netWeight), h.numNets)
		}
		for e, w := range h.netWeight {
			if w < 1 {
				return fmt.Errorf("hypergraph: net %d has weight %d < 1", e, w)
			}
		}
	}
	return nil
}
