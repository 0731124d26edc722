package hypergraph

import (
	"fmt"
	"math"
	"slices"
)

// Builder accumulates cells and nets and produces an immutable
// Hypergraph. Nets with fewer than two distinct pins are dropped at
// Build time (a net is defined to be a subset of V with size greater
// than one); duplicate pins within a net are merged.
//
// Every net's pins are stored back to back in one flat buffer: net i
// occupies pins[netEnd[i-1]:netEnd[i]] (netEnd[-1] taken as 0), so
// adding a net appends to two slices instead of allocating one. The
// per-net weights exist only once some net weighs more than 1.
type Builder struct {
	numCells int
	area     []int64
	pins     []int32
	netEnd   []int32 // end offset of each net's window in pins
	weights  []int32 // per net, parallel to netEnd; nil while all are 1
	names    []string
	err      error
	// ownsPins marks a Builder that is discarded after Build, so the
	// hypergraph may keep its pin buffer when that is exactly the
	// size of the built pins (the parser's, sized from its text).
	ownsPins bool
}

// NewBuilder returns a Builder for a hypergraph with numCells cells,
// all with unit area until SetArea is called.
func NewBuilder(numCells int) *Builder {
	if numCells < 0 {
		return &Builder{err: fmt.Errorf("hypergraph: negative cell count %d", numCells)}
	}
	return &Builder{numCells: numCells, area: unitAreas(numCells)}
}

// unitAreas returns n areas of 1.
func unitAreas(n int) []int64 {
	area := make([]int64, n)
	for i := range area {
		area[i] = 1
	}
	return area
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
	return b.addNet(1, pins)
}

// AddWeightedNet appends a net with an integer weight ≥ 1; weighted
// nets contribute their weight to the cut and to FM gains (input fmt
// 1/11 files, merged parallel nets).
func (b *Builder) AddWeightedNet(weight int32, pins ...int) *Builder {
	if b.err == nil && weight < 1 {
		b.err = fmt.Errorf("hypergraph: net weight %d < 1", weight)
	}
	return b.addNet(weight, pins)
}

func (b *Builder) addNet(weight int32, pins []int) *Builder {
	if b.err != nil {
		return b
	}
	for _, p := range pins {
		if p < 0 || p >= b.numCells {
			// The pins already appended are never built: once
			// b.err is set, Build returns it.
			b.err = fmt.Errorf("hypergraph: AddNet pin %d out of range [0,%d)", p, b.numCells)
			return b
		}
		b.pins = append(b.pins, int32(p))
	}
	b.endNet(weight)
	return b
}

// AddNet32 is AddNet for an []int32 pin list (avoids conversion churn
// in generators). The slice is copied.
func (b *Builder) AddNet32(pins []int32) *Builder {
	return b.addNet32(1, pins)
}

// AddWeightedNet32 is AddWeightedNet for an []int32 pin list.
func (b *Builder) AddWeightedNet32(weight int32, pins []int32) *Builder {
	if b.err == nil && weight < 1 {
		b.err = fmt.Errorf("hypergraph: net weight %d < 1", weight)
	}
	return b.addNet32(weight, pins)
}

func (b *Builder) addNet32(weight int32, pins []int32) *Builder {
	if b.err != nil {
		return b
	}
	for _, p := range pins {
		if p < 0 || int(p) >= b.numCells {
			b.err = fmt.Errorf("hypergraph: AddNet32 pin %d out of range [0,%d)", p, b.numCells)
			return b
		}
	}
	b.pins = append(b.pins, pins...)
	b.endNet(weight)
	return b
}

// endNet closes the net whose pins were appended since the previous
// one. The CSR offsets are int32, and programmatic builders are not
// behind the parser Limits, so a pin count past MaxInt32 is an error
// here, before Build allocates anything.
func (b *Builder) endNet(weight int32) {
	end := len(b.pins)
	if end > math.MaxInt32 {
		if b.err == nil {
			b.err = fmt.Errorf("hypergraph: %d pins overflow the int32 CSR index space", end)
		}
		return
	}
	if weight != 1 && b.weights == nil {
		// The first weighted net: every net before it weighs 1.
		b.weights = make([]int32, len(b.netEnd), cap(b.netEnd))
		for e := range b.weights {
			b.weights[e] = 1
		}
	}
	b.netEnd = append(b.netEnd, int32(end))
	if b.weights != nil {
		b.weights = append(b.weights, weight)
	}
}

// Build finalizes the hypergraph. It returns an error if any prior
// builder call recorded one.
//
// Build canonicalizes the builder's own buffer in place — each net
// sorted and deduplicated, degenerate nets removed — so building
// again, or after adding more nets, sees the same nets.
func (b *Builder) Build() (*Hypergraph, error) {
	if b.err != nil {
		return nil, b.err
	}
	kept, w, s := 0, int32(0), int32(0)
	for e, end := range b.netEnd {
		net := b.pins[s:end]
		s = end
		slices.Sort(net)
		from := w
		prev := int32(-1)
		for _, p := range net {
			if p != prev {
				b.pins[w] = p
				w++
				prev = p
			}
		}
		if w-from < 2 {
			w = from
			continue
		}
		b.netEnd[kept] = w
		if b.weights != nil {
			b.weights[kept] = b.weights[e]
		}
		kept++
	}
	b.pins, b.netEnd = b.pins[:w], b.netEnd[:kept]
	if b.weights != nil {
		b.weights = b.weights[:kept]
	}
	return b.finish()
}

// finish copies the builder's nets into exact-size CSR arrays and
// derives the cell→net direction and the area statistics. The net
// weights are kept only if some net has weight ≠ 1.
func (b *Builder) finish() (*Hypergraph, error) {
	numNets, numPins := len(b.netEnd), len(b.pins)
	h := &Hypergraph{
		numCells: b.numCells,
		numNets:  numNets,
		area:     b.area,
		names:    b.names,
	}
	// endNet kept every offset within int32.
	h.netStart = make([]int32, numNets+1)
	copy(h.netStart[1:], b.netEnd)
	if b.ownsPins && cap(b.pins) == numPins {
		h.netPins, b.pins = b.pins, nil
	} else {
		h.netPins = make([]int32, numPins)
		copy(h.netPins, b.pins)
	}
	if slices.ContainsFunc(b.weights, func(w int32) bool { return w != 1 }) {
		h.netWeight = make([]int32, numNets)
		copy(h.netWeight, b.weights)
	}

	h.buildCellSide(nil, nil)
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
	return b.finish()
}
