package hypergraph

import (
	"fmt"
	"math"
	"sort"
)

// Builder accumulates cells and nets and produces an immutable
// Hypergraph. Nets with fewer than two distinct pins are dropped at
// Build time (a net is defined to be a subset of V with size greater
// than one); duplicate pins within a net are merged.
type Builder struct {
	numCells int
	area     []int64
	nets     [][]int32
	weights  []int32 // parallel to nets; nil face means all 1
	names    []string
	err      error
}

// NewBuilder returns a Builder for a hypergraph with numCells cells,
// all with unit area until SetArea is called.
func NewBuilder(numCells int) *Builder {
	if numCells < 0 {
		return &Builder{err: fmt.Errorf("hypergraph: negative cell count %d", numCells)}
	}
	b := &Builder{numCells: numCells, area: make([]int64, numCells)}
	for i := range b.area {
		b.area[i] = 1
	}
	return b
}

// SetArea sets the area of cell v. Areas must be non-negative.
func (b *Builder) SetArea(v int, area int64) *Builder {
	if b.err != nil {
		return b
	}
	if v < 0 || v >= b.numCells {
		b.err = fmt.Errorf("hypergraph: SetArea cell %d out of range [0,%d)", v, b.numCells)
		return b
	}
	if area < 0 {
		b.err = fmt.Errorf("hypergraph: SetArea cell %d negative area %d", v, area)
		return b
	}
	b.area[v] = area
	return b
}

// SetName attaches a name to cell v (used by file I/O and reports).
func (b *Builder) SetName(v int, name string) *Builder {
	if b.err != nil {
		return b
	}
	if v < 0 || v >= b.numCells {
		b.err = fmt.Errorf("hypergraph: SetName cell %d out of range [0,%d)", v, b.numCells)
		return b
	}
	if b.names == nil {
		b.names = make([]string, b.numCells)
	}
	b.names[v] = name
	return b
}

// AddNet appends a net with the given pins. Out-of-range pins are an
// error reported by Build. Duplicate pins are merged; nets that end up
// with fewer than two pins are silently dropped (per the paper's net
// definition).
func (b *Builder) AddNet(pins ...int) *Builder {
	if b.err != nil {
		return b
	}
	net := make([]int32, 0, len(pins))
	for _, p := range pins {
		if p < 0 || p >= b.numCells {
			b.err = fmt.Errorf("hypergraph: AddNet pin %d out of range [0,%d)", p, b.numCells)
			return b
		}
		net = append(net, int32(p))
	}
	b.nets = append(b.nets, net)
	b.weights = append(b.weights, 1)
	return b
}

// AddWeightedNet appends a net with an integer weight ≥ 1; weighted
// nets contribute their weight to the cut and to FM gains (input fmt
// 1/11 files, merged parallel nets).
func (b *Builder) AddWeightedNet(weight int32, pins ...int) *Builder {
	if b.err != nil {
		return b
	}
	if weight < 1 {
		b.err = fmt.Errorf("hypergraph: net weight %d < 1", weight)
		return b
	}
	b.AddNet(pins...)
	if b.err == nil {
		b.weights[len(b.weights)-1] = weight
	}
	return b
}

// AddNet32 is AddNet for an []int32 pin list (avoids conversion churn
// in generators). The slice is copied.
func (b *Builder) AddNet32(pins []int32) *Builder {
	if b.err != nil {
		return b
	}
	for _, p := range pins {
		if p < 0 || int(p) >= b.numCells {
			b.err = fmt.Errorf("hypergraph: AddNet32 pin %d out of range [0,%d)", p, b.numCells)
			return b
		}
	}
	net := make([]int32, len(pins))
	copy(net, pins)
	b.nets = append(b.nets, net)
	b.weights = append(b.weights, 1)
	return b
}

// AddWeightedNet32 is AddWeightedNet for an []int32 pin list.
func (b *Builder) AddWeightedNet32(weight int32, pins []int32) *Builder {
	if b.err != nil {
		return b
	}
	if weight < 1 {
		b.err = fmt.Errorf("hypergraph: net weight %d < 1", weight)
		return b
	}
	b.AddNet32(pins)
	if b.err == nil {
		b.weights[len(b.weights)-1] = weight
	}
	return b
}

// Build finalizes the hypergraph. It returns an error if any prior
// builder call recorded one.
func (b *Builder) Build() (*Hypergraph, error) {
	if b.err != nil {
		return nil, b.err
	}
	// Deduplicate pins within each net and drop degenerate nets.
	kept := make([][]int32, 0, len(b.nets))
	keptW := make([]int32, 0, len(b.nets))
	weighted := false
	for ni, net := range b.nets {
		sort.Slice(net, func(i, j int) bool { return net[i] < net[j] })
		out := net[:0]
		var prev int32 = -1
		for _, p := range net {
			if p != prev {
				out = append(out, p)
				prev = p
			}
		}
		if len(out) >= 2 {
			kept = append(kept, out)
			w := b.weights[ni]
			keptW = append(keptW, w)
			if w != 1 {
				weighted = true
			}
		}
	}
	h := &Hypergraph{
		numCells: b.numCells,
		numNets:  len(kept),
		area:     b.area,
		names:    b.names,
	}
	if weighted {
		h.netWeight = keptW
	}
	numPins := 0
	for _, net := range kept {
		numPins += len(net)
	}
	// The CSR offsets are int32; programmatic builders are not behind
	// the parser Limits, so the pin total must be checked here before
	// any narrowing below.
	if numPins > math.MaxInt32 {
		return nil, fmt.Errorf("hypergraph: %d pins overflow the int32 CSR index space", numPins)
	}
	h.netStart = make([]int32, len(kept)+1)
	h.netPins = make([]int32, numPins)
	at := int32(0)
	for e, net := range kept {
		h.netStart[e] = at
		copy(h.netPins[at:], net)
		at += int32(len(net)) //mllint:ignore unchecked-narrow len(net) <= numPins, checked against MaxInt32 above
	}
	h.netStart[len(kept)] = at

	// Build the cell->net CSR by counting then filling.
	deg := make([]int32, b.numCells+1)
	for _, net := range kept {
		for _, p := range net {
			deg[p+1]++
		}
	}
	h.cellStart = make([]int32, b.numCells+1)
	for v := 0; v < b.numCells; v++ {
		h.cellStart[v+1] = h.cellStart[v] + deg[v+1]
	}
	h.cellNets = make([]int32, numPins)
	fill := make([]int32, b.numCells)
	copy(fill, h.cellStart[:b.numCells])
	for e, net := range kept {
		for _, p := range net {
			h.cellNets[fill[p]] = int32(e)
			fill[p]++
		}
	}
	for v, a := range b.area {
		total, err := addArea(h.totalArea, a)
		if err != nil {
			return nil, err
		}
		h.totalArea = total
		if v == 0 || a < h.minArea {
			h.minArea = a
		}
		if a > h.maxArea {
			h.maxArea = a
		}
	}
	return h, nil
}

// MustBuild is Build that panics on error; intended for tests and
// generators whose inputs are constructed, not parsed.
func (b *Builder) MustBuild() *Hypergraph {
	h, err := b.Build()
	if err != nil {
		panic(err)
	}
	return h
}

// BuildRawForTest finalizes the hypergraph WITHOUT the Build-time
// sanitization: pins are kept in insertion order with duplicates, and
// degenerate nets (fewer than two pins) are retained. Build makes such
// nets unreachable through the public API, so regression tests for
// code that must tolerate them (e.g. the 1/(|e|−1) connectivity term
// in coarsen.Conn) need this hook. Never call it outside tests.
func (b *Builder) BuildRawForTest() (*Hypergraph, error) {
	if b.err != nil {
		return nil, b.err
	}
	h := &Hypergraph{
		numCells: b.numCells,
		numNets:  len(b.nets),
		area:     b.area,
		names:    b.names,
	}
	for _, w := range b.weights {
		if w != 1 {
			h.netWeight = b.weights
			break
		}
	}
	numPins := 0
	for _, net := range b.nets {
		numPins += len(net)
	}
	if numPins > math.MaxInt32 {
		return nil, fmt.Errorf("hypergraph: %d pins overflow the int32 CSR index space", numPins)
	}
	h.netStart = make([]int32, len(b.nets)+1)
	h.netPins = make([]int32, numPins)
	at := int32(0)
	for e, net := range b.nets {
		h.netStart[e] = at
		copy(h.netPins[at:], net)
		at += int32(len(net)) //mllint:ignore unchecked-narrow len(net) <= numPins, checked against MaxInt32 above
	}
	h.netStart[len(b.nets)] = at
	deg := make([]int32, b.numCells+1)
	for _, net := range b.nets {
		for _, p := range net {
			deg[p+1]++
		}
	}
	h.cellStart = make([]int32, b.numCells+1)
	for v := 0; v < b.numCells; v++ {
		h.cellStart[v+1] = h.cellStart[v] + deg[v+1]
	}
	h.cellNets = make([]int32, numPins)
	fill := make([]int32, b.numCells)
	copy(fill, h.cellStart[:b.numCells])
	for e, net := range b.nets {
		for _, p := range net {
			h.cellNets[fill[p]] = int32(e)
			fill[p]++
		}
	}
	for v, a := range b.area {
		total, err := addArea(h.totalArea, a)
		if err != nil {
			return nil, err
		}
		h.totalArea = total
		if v == 0 || a < h.minArea {
			h.minArea = a
		}
		if a > h.maxArea {
			h.maxArea = a
		}
	}
	return h, nil
}
