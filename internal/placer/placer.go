// Package placer implements a top-down standard-cell global placer
// driven by multilevel quadrisection — the application that §III.C
// and §IV.D describe ("our work in multilevel quadrisection has been
// used as the basis for an effective cell placement package [24]").
//
// The chip is recursively divided into quadrants. Each region's
// subcircuit is quadrisected with the ML algorithm; nets that leave
// the region are anchored with terminal propagation (a fixed pseudo-
// terminal at the centroid of the net's external pins, pre-assigned
// to the nearest quadrant — the model of Dunlop & Kernighan that
// §III.C's "terminal propagation models" refers to). Recursion stops
// at small regions, whose cells are spread in a grid. Quality is
// measured as half-perimeter wirelength (HPWL), the metric [24]
// reports savings in versus GORDIAN-L.
package placer

import (
	"fmt"
	"math"
	"math/rand"

	"mlpart/internal/core"
	"mlpart/internal/hypergraph"
	"mlpart/internal/netmodel"
)

// Config parameterizes the top-down placer.
type Config struct {
	// MinRegionCells stops recursion when a region has at most this
	// many cells. Default 12.
	MinRegionCells int
	// MaxDepth bounds the recursion depth. Default 10.
	MaxDepth int
	// TerminalPropagation anchors external nets with fixed pseudo-
	// terminals (on by default; set Off to measure its value).
	TerminalPropagationOff bool
	// Quad is the per-region multilevel quadrisection template; its K
	// is forced to 4. The zero value uses the paper's quadrisection
	// setup (T = 100, R = 1.0, sum-of-degrees, FM engine).
	Quad core.QuadConfig
}

// Normalize fills defaults and validates.
func (c Config) Normalize() (Config, error) {
	if c.MinRegionCells == 0 {
		c.MinRegionCells = 12
	}
	if c.MinRegionCells < 4 {
		return c, fmt.Errorf("placer: MinRegionCells %d < 4", c.MinRegionCells)
	}
	if c.MaxDepth == 0 {
		c.MaxDepth = 10
	}
	if c.MaxDepth < 1 {
		return c, fmt.Errorf("placer: MaxDepth %d < 1", c.MaxDepth)
	}
	if c.Quad.Refine.K != 0 && c.Quad.Refine.K != 4 {
		return c, fmt.Errorf("placer: region partitioning must be 4-way, got K=%d", c.Quad.Refine.K)
	}
	c.Quad.Refine.K = 4
	var err error
	if c.Quad, err = c.Quad.Normalize(); err != nil {
		return c, err
	}
	return c, nil
}

// Placement is a global placement of every cell in the unit square.
type Placement struct {
	X, Y []float64
	// Regions is the number of leaf regions produced.
	Regions int
	// Depth is the deepest recursion level used.
	Depth int
	// HPWL is the half-perimeter wirelength of the placement.
	HPWL float64
}

// region is a rectangle plus the cells currently assigned to it.
type region struct {
	x0, y0, x1, y1 float64
	cells          []int32
	depth          int
}

// Place runs the top-down flow on h. pads optionally flags I/O cells
// with fixed positions padX/padY (all three nil, or all of length
// NumCells); pads keep their coordinates and are excluded from
// region recursion, but still anchor nets via terminal propagation.
func Place(h *hypergraph.Hypergraph, pads []bool, padX, padY []float64, cfg Config, rng *rand.Rand) (*Placement, error) {
	cfg, err := cfg.Normalize()
	if err != nil {
		return nil, err
	}
	n := h.NumCells()
	if (pads == nil) != (padX == nil) || (pads == nil) != (padY == nil) {
		return nil, fmt.Errorf("placer: pads, padX and padY must be set together")
	}
	if pads != nil && (len(pads) != n || len(padX) != n || len(padY) != n) {
		return nil, fmt.Errorf("placer: pad arrays must have %d entries", n)
	}
	pl := &Placement{X: make([]float64, n), Y: make([]float64, n)}
	isPad := func(v int32) bool { return pads != nil && pads[v] }
	// Current coordinate estimate: region center, refined as regions
	// split; pads are exact from the start.
	for v := 0; v < n; v++ {
		if isPad(int32(v)) {
			pl.X[v], pl.Y[v] = padX[v], padY[v]
		} else {
			pl.X[v], pl.Y[v] = 0.5, 0.5
		}
	}
	root := region{x0: 0, y0: 0, x1: 1, y1: 1, depth: 0}
	for v := int32(0); int(v) < n; v++ {
		if !isPad(v) {
			root.cells = append(root.cells, v)
		}
	}
	queue := []region{root}
	for len(queue) > 0 {
		r := queue[0]
		queue = queue[1:]
		if r.depth > pl.Depth {
			pl.Depth = r.depth
		}
		if len(r.cells) <= cfg.MinRegionCells || r.depth >= cfg.MaxDepth {
			spreadInRegion(h, r, pl)
			pl.Regions++
			continue
		}
		children, err := splitRegion(h, r, pl, cfg, rng)
		if err != nil {
			return nil, err
		}
		queue = append(queue, children...)
	}
	pl.HPWL = HPWL(h, pl.X, pl.Y)
	return pl, nil
}

// splitRegion quadrisects one region's subcircuit and returns the
// four child regions.
func splitRegion(h *hypergraph.Hypergraph, r region, pl *Placement, cfg Config, rng *rand.Rand) ([]region, error) {
	// Local indexing for the region cells.
	local := make(map[int32]int32, len(r.cells))
	for i, v := range r.cells {
		local[v] = int32(i)
	}
	nLocal := len(r.cells)
	xm := (r.x0 + r.x1) / 2
	ym := (r.y0 + r.y1) / 2

	// First pass: gather nets and terminals.
	type netSpec struct {
		pins     []int32 // local indices
		terminal int     // terminal index or -1
	}
	var nets []netSpec
	var termQuad []int32 // per terminal: pre-assigned quadrant
	seen := make(map[int32]bool)
	for _, v := range r.cells {
		for _, e := range h.Nets(int(v)) {
			if seen[e] {
				continue
			}
			seen[e] = true
			var pins []int32
			var extX, extY float64
			ext := 0
			for _, u := range h.Pins(int(e)) {
				if lu, ok := local[u]; ok {
					pins = append(pins, lu)
				} else {
					extX += pl.X[u]
					extY += pl.Y[u]
					ext++
				}
			}
			if len(pins) == 0 || (len(pins) == 1 && (ext == 0 || cfg.TerminalPropagationOff)) {
				continue
			}
			spec := netSpec{pins: pins, terminal: -1}
			if ext > 0 && !cfg.TerminalPropagationOff {
				// Terminal at the centroid of the external pins,
				// clamped into the region, pre-assigned to the
				// quadrant containing that point.
				cx := clamp(extX/float64(ext), r.x0, r.x1)
				cy := clamp(extY/float64(ext), r.y0, r.y1)
				q := int32(0)
				if cx >= xm {
					q++
				}
				if cy >= ym {
					q += 2
				}
				spec.terminal = len(termQuad)
				termQuad = append(termQuad, q)
			}
			if len(spec.pins)+btoi(spec.terminal >= 0) >= 2 {
				nets = append(nets, spec)
			}
		}
	}
	// Build the subcircuit: region cells first, then terminals.
	total := nLocal + len(termQuad)
	b := hypergraph.NewBuilder(total)
	for i, v := range r.cells {
		b.SetArea(i, h.Area(int(v)))
	}
	for t := range termQuad {
		b.SetArea(nLocal+t, 0) // terminals are weightless
	}
	pinBuf := make([]int32, 0, 16)
	for _, spec := range nets {
		pinBuf = pinBuf[:0]
		pinBuf = append(pinBuf, spec.pins...)
		if spec.terminal >= 0 {
			pinBuf = append(pinBuf, int32(nLocal+spec.terminal))
		}
		b.AddNet32(pinBuf)
	}
	sub, err := b.Build()
	if err != nil {
		return nil, err
	}

	qcfg := cfg.Quad
	if len(termQuad) > 0 {
		fixed := make([]bool, total)
		pre := make([]int32, total)
		for t, q := range termQuad {
			fixed[nLocal+t] = true
			pre[nLocal+t] = q
		}
		qcfg.Fixed = fixed
		qcfg.Preassign = pre
	}
	p, _, err := core.Quadrisect(sub, qcfg, rng)
	if err != nil {
		return nil, err
	}

	children := make([]region, 4)
	bounds := [4][4]float64{
		{r.x0, r.y0, xm, ym}, // block 0: left-bottom
		{xm, r.y0, r.x1, ym}, // block 1: right-bottom
		{r.x0, ym, xm, r.y1}, // block 2: left-top
		{xm, ym, r.x1, r.y1}, // block 3: right-top
	}
	for q := 0; q < 4; q++ {
		children[q] = region{
			x0: bounds[q][0], y0: bounds[q][1],
			x1: bounds[q][2], y1: bounds[q][3],
			depth: r.depth + 1,
		}
	}
	for i, v := range r.cells {
		q := p.Part[i]
		children[q].cells = append(children[q].cells, v)
		pl.X[v] = (children[q].x0 + children[q].x1) / 2
		pl.Y[v] = (children[q].y0 + children[q].y1) / 2
	}
	// Drop empty children.
	out := children[:0]
	for _, c := range children {
		if len(c.cells) > 0 {
			out = append(out, c)
		}
	}
	return out, nil
}

// spreadInRegion lays a leaf region's cells on a regular grid.
func spreadInRegion(h *hypergraph.Hypergraph, r region, pl *Placement) {
	n := len(r.cells)
	if n == 0 {
		return
	}
	cols := int(math.Ceil(math.Sqrt(float64(n))))
	rows := (n + cols - 1) / cols
	dw := (r.x1 - r.x0) / float64(cols)
	dh := (r.y1 - r.y0) / float64(rows)
	for i, v := range r.cells {
		cx := r.x0 + (float64(i%cols)+0.5)*dw
		cy := r.y0 + (float64(i/cols)+0.5)*dh
		pl.X[v] = cx
		pl.Y[v] = cy
	}
}

// SpreadToGrid legalizes an analytic placement onto a uniform
// √n × √n grid while preserving the relative ordering: cells are
// ranked by x into columns, then by y within each column. Quadratic
// placements (GORDIAN's first iteration) collapse cells toward the
// centroid, which makes raw HPWL meaningless — a placement with every
// cell at one point has HPWL 0 — so comparisons legalize both sides
// first, exactly as GORDIAN's own later optimization "spreads out the
// cells (i.e., prevents overlapping)" (§IV.D).
func SpreadToGrid(h *hypergraph.Hypergraph, x, y []float64) (sx, sy []float64) {
	n := h.NumCells()
	sx = make([]float64, n)
	sy = make([]float64, n)
	if n == 0 {
		return sx, sy
	}
	cols := int(math.Ceil(math.Sqrt(float64(n))))
	order := make([]int32, n)
	for v := range order {
		order[v] = int32(v)
	}
	netmodel.SortByKey(order, x)
	perCol := (n + cols - 1) / cols
	for c := 0; c*perCol < n; c++ {
		lo := c * perCol
		hi := lo + perCol
		if hi > n {
			hi = n
		}
		col := order[lo:hi]
		tmp := make([]int32, len(col))
		copy(tmp, col)
		netmodel.SortByKey(tmp, y)
		for r, v := range tmp {
			sx[v] = (float64(c) + 0.5) / float64(cols)
			sy[v] = (float64(r) + 0.5) / float64(perCol)
		}
	}
	return sx, sy
}

// HPWL returns the half-perimeter wirelength of a placement: the sum
// over nets of the bounding-box width plus height.
func HPWL(h *hypergraph.Hypergraph, x, y []float64) float64 {
	var total float64
	for e := 0; e < h.NumNets(); e++ {
		pins := h.Pins(e)
		minX, maxX := x[pins[0]], x[pins[0]]
		minY, maxY := y[pins[0]], y[pins[0]]
		for _, v := range pins[1:] {
			if x[v] < minX {
				minX = x[v]
			}
			if x[v] > maxX {
				maxX = x[v]
			}
			if y[v] < minY {
				minY = y[v]
			}
			if y[v] > maxY {
				maxY = y[v]
			}
		}
		total += (maxX - minX) + (maxY - minY)
	}
	return total
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
