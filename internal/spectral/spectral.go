// Package spectral implements spectral (EIG) bipartitioning, the
// classical baseline of Hagen & Kahng ("New Spectral Methods for
// Ratio Cut Partitioning and Clustering", [18]) that several of the
// paper's comparison algorithms are measured against (PARABOLI
// reports cuts "50% better than spectral bipartitioning"; the
// two-phase framework of [3] clusters with spectral orderings).
//
// The netlist is expanded into the clique-model graph, the Fiedler
// vector (eigenvector of the second-smallest Laplacian eigenvalue) is
// computed with deflated power iteration on the spectrum-flipped
// operator c·I − L, and the induced ordering is split at the area
// median. Optionally the split is refined with FM — the classic
// "EIG + FM" two-phase combination.
package spectral

import (
	"fmt"
	"math"
	"math/rand"

	"mlpart/internal/fm"
	"mlpart/internal/hypergraph"
	"mlpart/internal/netmodel"
)

// Config parameterizes spectral bipartitioning.
type Config struct {
	// CliqueLimit for the net model (see netmodel.Build). Default 16.
	CliqueLimit int
	// MaxIter bounds power iterations. Default 2000.
	MaxIter int
	// Tol is the convergence tolerance on the Rayleigh quotient.
	// Default 1e-7.
	Tol float64
	// RefineFM, when true, post-refines the spectral split with an FM
	// pass sequence (two-phase EIG + FM).
	RefineFM bool
	// Lanczos, when true, computes the Fiedler vector with the
	// Lanczos iteration of Barnard & Simon [6] instead of deflated
	// power iteration — more accurate per matvec on large instances.
	Lanczos bool
	// Refine configures the FM post-refinement when RefineFM is set.
	Refine fm.Config
}

// Normalize fills defaults and validates.
func (c Config) Normalize() (Config, error) {
	if c.CliqueLimit == 0 {
		c.CliqueLimit = 16
	}
	if c.CliqueLimit < 2 {
		return c, fmt.Errorf("spectral: clique limit %d < 2", c.CliqueLimit)
	}
	if c.MaxIter == 0 {
		c.MaxIter = 2000
	}
	if c.MaxIter < 1 {
		return c, fmt.Errorf("spectral: MaxIter %d < 1", c.MaxIter)
	}
	if c.Tol == 0 {
		c.Tol = 1e-7
	}
	if c.Tol <= 0 || c.Tol >= 1 {
		return c, fmt.Errorf("spectral: tolerance %v outside (0,1)", c.Tol)
	}
	var err error
	if c.Refine, err = c.Refine.Normalize(); err != nil {
		return c, err
	}
	return c, nil
}

// Result reports a spectral bipartitioning run.
type Result struct {
	// Cut of the final bipartitioning (all nets).
	Cut int
	// Iterations used by the eigensolver.
	Iterations int
	// Lambda2 is the estimated second-smallest Laplacian eigenvalue.
	Lambda2 float64
	// Fiedler is the computed eigenvector (normalized, ⊥ 1).
	Fiedler []float64
}

// Fiedler computes (an approximation to) the Fiedler vector of the
// clique-model Laplacian of h by deflated power iteration on
// M = c·I − L with c = 2·maxdeg + 1: the dominant eigenvector of M
// orthogonal to the all-ones vector is the Fiedler vector of L.
// Returns the vector, the eigenvalue estimate λ2 and the iteration
// count.
func Fiedler(g *netmodel.Graph, maxIter int, tol float64, rng *rand.Rand) ([]float64, float64, int) {
	n := g.NumCells()
	if n == 0 {
		return nil, 0, 0
	}
	c := 2*g.MaxDegree() + 1
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	deflate(x)
	normalize(x)
	prevRQ := math.Inf(1)
	iters := 0
	for it := 0; it < maxIter; it++ {
		iters = it + 1
		// y = (c·I − L)·x
		g.LaplacianMulAdd(x, y)
		for i := range y {
			y[i] = c*x[i] - y[i]
		}
		deflate(y)
		nrm := normalize(y)
		if nrm == 0 {
			// x was in the kernel of the deflated operator (e.g. a
			// single connected cell set); restart with a new vector.
			for i := range y {
				y[i] = rng.NormFloat64()
			}
			deflate(y)
			normalize(y)
		}
		x, y = y, x
		// Rayleigh quotient of L on x.
		g.LaplacianMulAdd(x, y)
		var rq float64
		for i := range x {
			rq += x[i] * y[i]
		}
		if math.Abs(rq-prevRQ) < tol*(1+math.Abs(rq)) {
			return x, rq, iters
		}
		prevRQ = rq
	}
	g.LaplacianMulAdd(x, y)
	var rq float64
	for i := range x {
		rq += x[i] * y[i]
	}
	return x, rq, iters
}

// deflate removes the component along the all-ones vector.
func deflate(x []float64) {
	var mean float64
	for _, v := range x {
		mean += v
	}
	mean /= float64(len(x))
	for i := range x {
		x[i] -= mean
	}
}

// normalize scales x to unit 2-norm, returning the original norm.
func normalize(x []float64) float64 {
	var nrm float64
	for _, v := range x {
		nrm += v * v
	}
	nrm = math.Sqrt(nrm)
	if nrm == 0 {
		return 0
	}
	for i := range x {
		x[i] /= nrm
	}
	return nrm
}

// Bipartition runs spectral bipartitioning on h: Fiedler vector,
// area-median split of the induced ordering, optional FM refinement.
func Bipartition(h *hypergraph.Hypergraph, cfg Config, rng *rand.Rand) (*hypergraph.Partition, Result, error) {
	cfg, err := cfg.Normalize()
	if err != nil {
		return nil, Result{}, err
	}
	n := h.NumCells()
	if n == 0 {
		return hypergraph.NewPartition(0, 2), Result{}, nil
	}
	g := netmodel.Build(h, cfg.CliqueLimit)
	var vec []float64
	var lambda2 float64
	var iters int
	if cfg.Lanczos {
		vec, lambda2, iters = FiedlerLanczos(g, rng)
	} else {
		vec, lambda2, iters = Fiedler(g, cfg.MaxIter, cfg.Tol, rng)
	}
	p := &hypergraph.Partition{Part: netmodel.SplitAtAreaMedian(h, vec), K: 2}
	res := Result{Iterations: iters, Lambda2: lambda2, Fiedler: vec}
	if cfg.RefineFM {
		if _, err := fm.Refine(h, p, cfg.Refine, rng); err != nil {
			return nil, Result{}, err
		}
	}
	res.Cut = p.Cut(h)
	return p, res, nil
}
