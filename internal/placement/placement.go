// Package placement implements the algorithmic core of the GORDIAN
// placement tool [30][41] that §IV.D compares against: a quadratic
// wirelength placement (solved as a sparse linear system with I/O
// pads fixed on the chip boundary) whose induced one-dimensional
// orderings are sliced to produce a 4-way partitioning.
//
// GORDIAN itself is closed source; this package rebuilds exactly the
// piece Table IX measures — solve the quadratic program, split the
// horizontal ordering into left/right halves, re-solve/split
// vertically, and report the 4-way cut of the resulting quadrants.
package placement

import (
	"fmt"
	"math/rand"

	"mlpart/internal/hypergraph"
	"mlpart/internal/netmodel"
)

// Config parameterizes the quadratic placer.
type Config struct {
	// CliqueLimit: nets with at most this many pins use the clique
	// model with weight 1/(|e|−1) per pair; larger nets use a chain
	// model (consecutive pins with weight 1/(|e|−1)) to keep the
	// system sparse. Default 16.
	CliqueLimit int
	// CGTol is the relative residual tolerance of the conjugate
	// gradient solver. Default 1e-6.
	CGTol float64
	// CGMaxIter bounds CG iterations. Default 1000.
	CGMaxIter int
	// Anchor is a small regularization weight pulling every movable
	// cell toward the chip center; it keeps the system positive
	// definite when cells are disconnected from all pads. Default
	// 1e-4.
	Anchor float64
}

// Normalize fills defaults and validates.
func (c Config) Normalize() (Config, error) {
	if c.CliqueLimit == 0 {
		c.CliqueLimit = 16
	}
	if c.CliqueLimit < 2 {
		return c, fmt.Errorf("placement: clique limit %d < 2", c.CliqueLimit)
	}
	if c.CGTol == 0 {
		c.CGTol = 1e-6
	}
	if c.CGTol <= 0 || c.CGTol >= 1 {
		return c, fmt.Errorf("placement: CG tolerance %v outside (0,1)", c.CGTol)
	}
	if c.CGMaxIter == 0 {
		c.CGMaxIter = 1000
	}
	if c.CGMaxIter < 1 {
		return c, fmt.Errorf("placement: CGMaxIter %d < 1", c.CGMaxIter)
	}
	if c.Anchor == 0 {
		c.Anchor = 1e-4
	}
	if c.Anchor < 0 {
		return c, fmt.Errorf("placement: negative anchor weight")
	}
	return c, nil
}

// Result reports a quadrisection-by-placement run.
type Result struct {
	// X, Y are the solved coordinates of every cell in [0,1].
	X, Y []float64
	// CutNets is the number of nets spanning more than one quadrant.
	CutNets int
	// SumDegrees is Σ_e (span−1) over the quadrants.
	SumDegrees int
	// CGIterationsX/Y are the solver iteration counts.
	CGIterationsX, CGIterationsY int
}

// solve1D solves the quadratic placement along one axis with the
// given fixed positions (fixedPos[v] is used iff fixed[v]). Returns
// the coordinates of all cells and the CG iteration count.
func solve1D(h *hypergraph.Hypergraph, g *netmodel.Graph, fixed []bool, fixedPos []float64, cfg Config) ([]float64, int) {
	n := h.NumCells()
	// Index movable cells.
	idx := make([]int32, n)
	var movable []int32
	for v := 0; v < n; v++ {
		if fixed[v] {
			idx[v] = -1
		} else {
			idx[v] = int32(len(movable))
			movable = append(movable, int32(v))
		}
	}
	m := len(movable)
	pos := make([]float64, n)
	for v := 0; v < n; v++ {
		if fixed[v] {
			pos[v] = fixedPos[v]
		} else {
			pos[v] = 0.5
		}
	}
	if m == 0 {
		return pos, 0
	}
	// System: (L_mm + anchor·I) x = b,
	// b_i = Σ_{j fixed} w_ij·pos_j + anchor·0.5.
	b := make([]float64, m)
	diag := make([]float64, m)
	for mi, v := range movable {
		diag[mi] = g.Degree(int(v)) + cfg.Anchor
		b[mi] = cfg.Anchor * 0.5
		g.Neighbors(int(v), func(u int32, w float64) {
			if fixed[u] {
				b[mi] += w * fixedPos[u]
			}
		})
	}
	// matvec: y = A x over movable cells.
	matvec := func(x, y []float64) {
		for mi, v := range movable {
			sum := diag[mi] * x[mi]
			g.Neighbors(int(v), func(u int32, w float64) {
				if j := idx[u]; j >= 0 {
					sum -= w * x[j]
				}
			})
			y[mi] = sum
		}
	}
	x := make([]float64, m)
	for i := range x {
		x[i] = 0.5
	}
	iters := cg(matvec, diag, b, x, cfg.CGTol, cfg.CGMaxIter)
	for mi, v := range movable {
		pos[v] = clamp01(x[mi])
	}
	return pos, iters
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// cg runs Jacobi-preconditioned conjugate gradients, solving A x = b
// in place; returns the iteration count.
func cg(matvec func(x, y []float64), diag, b, x []float64, tol float64, maxIter int) int {
	m := len(b)
	r := make([]float64, m)
	z := make([]float64, m)
	p := make([]float64, m)
	ap := make([]float64, m)
	matvec(x, r)
	var bnorm float64
	for i := range r {
		r[i] = b[i] - r[i]
		bnorm += b[i] * b[i]
	}
	if bnorm == 0 {
		for i := range x {
			x[i] = 0
		}
		return 0
	}
	var rz float64
	for i := range r {
		z[i] = r[i] / diag[i]
		rz += r[i] * z[i]
		p[i] = z[i]
	}
	tol2 := tol * tol * bnorm
	for it := 0; it < maxIter; it++ {
		var rr float64
		for i := range r {
			rr += r[i] * r[i]
		}
		if rr <= tol2 {
			return it
		}
		matvec(p, ap)
		var pap float64
		for i := range p {
			pap += p[i] * ap[i]
		}
		if pap <= 0 {
			return it // safeguard: matrix not PD numerically
		}
		alpha := rz / pap
		for i := range x {
			x[i] += alpha * p[i]
			r[i] -= alpha * ap[i]
		}
		var rzNew float64
		for i := range r {
			z[i] = r[i] / diag[i]
			rzNew += r[i] * z[i]
		}
		beta := rzNew / rz
		rz = rzNew
		for i := range p {
			p[i] = z[i] + beta*p[i]
		}
	}
	return maxIter
}

// Quadrisect runs the GORDIAN-style flow on h. pads flags the
// pre-placed I/O cells; if nil or fewer than 4 pads are flagged, a
// deterministic pseudo-random pad set of max(8, n/50) cells is
// chosen. Pad positions are spread evenly around the chip boundary
// in random order.
func Quadrisect(h *hypergraph.Hypergraph, pads []bool, cfg Config, rng *rand.Rand) (*hypergraph.Partition, Result, error) {
	cfg, err := cfg.Normalize()
	if err != nil {
		return nil, Result{}, err
	}
	n := h.NumCells()
	if n == 0 {
		return hypergraph.NewPartition(0, 4), Result{}, nil
	}
	fixed := make([]bool, n)
	numPads := 0
	if pads != nil {
		if len(pads) != n {
			return nil, Result{}, fmt.Errorf("placement: pads has %d entries, hypergraph has %d cells", len(pads), n)
		}
		copy(fixed, pads)
		for _, p := range fixed {
			if p {
				numPads++
			}
		}
	}
	if numPads < 4 {
		want := n / 50
		if want < 8 {
			want = 8
		}
		if want > n {
			want = n
		}
		perm := rng.Perm(n)
		for i := 0; numPads < want && i < n; i++ {
			if !fixed[perm[i]] {
				fixed[perm[i]] = true
				numPads++
			}
		}
	}
	// Place pads evenly on the boundary of the unit square, in a
	// random order.
	padX := make([]float64, n)
	padY := make([]float64, n)
	var padList []int
	for v := 0; v < n; v++ {
		if fixed[v] {
			padList = append(padList, v)
		}
	}
	rng.Shuffle(len(padList), func(i, j int) { padList[i], padList[j] = padList[j], padList[i] })
	for i, v := range padList {
		t := float64(i) / float64(len(padList)) * 4.0
		switch {
		case t < 1: // bottom edge
			padX[v], padY[v] = t, 0
		case t < 2: // right edge
			padX[v], padY[v] = 1, t-1
		case t < 3: // top edge
			padX[v], padY[v] = 3-t, 1
		default: // left edge
			padX[v], padY[v] = 0, 4-t
		}
	}

	g := netmodel.Build(h, cfg.CliqueLimit)
	res := Result{}
	res.X, res.CGIterationsX = solve1D(h, g, fixed, padX, cfg)
	res.Y, res.CGIterationsY = solve1D(h, g, fixed, padY, cfg)

	// Horizontal split, then global vertical split → quadrants, each
	// at the area median (GORDIAN's "single split that evenly divides
	// the area").
	xf := netmodel.SplitAtAreaMedian(h, res.X)
	yf := netmodel.SplitAtAreaMedian(h, res.Y)
	p := hypergraph.NewPartition(n, 4)
	for v := 0; v < n; v++ {
		p.Part[v] = xf[v] + 2*yf[v]
	}
	res.CutNets = p.Cut(h)
	res.SumDegrees = p.SumOfDegrees(h)
	return p, res, nil
}
