// Package gfm implements the Gradient Fiduccia–Mattheyses baseline
// of Liu, Kuo, Huang and Cheng ("A Gradient Method on the Initial
// Partition of Fiduccia–Mattheyses Algorithm", ICCAD 1995 — the
// paper's [32], a Table VII comparison column): FM refinement
// alternates with gradient descent on the quadratic-wirelength
// relaxation.
//
// One GFM round takes the current bipartition as a ±1 indicator
// vector x, performs a few explicit gradient steps on the clique-
// model quadratic cost ½·xᵀLx (x ← x − α·Lx, with the step α chosen
// from the Laplacian's Gershgorin bound so the iteration is a
// contraction on the high-frequency components), rounds the smoothed
// coordinates back to a balanced bipartition at the area median, and
// refines with FM. Rounds repeat while they improve.
package gfm

import (
	"fmt"
	"math/rand"

	"mlpart/internal/fm"
	"mlpart/internal/hypergraph"
	"mlpart/internal/netmodel"
)

// Config parameterizes GFM.
type Config struct {
	// MaxRounds bounds the FM↔gradient alternations. Default 10.
	MaxRounds int
	// GradientSteps per round. Default 10.
	GradientSteps int
	// CliqueLimit for the net model. Default 16.
	CliqueLimit int
	// Refine configures the FM engine used between gradient steps.
	Refine fm.Config
}

// Normalize fills defaults and validates.
func (c Config) Normalize() (Config, error) {
	if c.MaxRounds == 0 {
		c.MaxRounds = 10
	}
	if c.MaxRounds < 1 {
		return c, fmt.Errorf("gfm: MaxRounds %d < 1", c.MaxRounds)
	}
	if c.GradientSteps == 0 {
		c.GradientSteps = 10
	}
	if c.GradientSteps < 1 {
		return c, fmt.Errorf("gfm: GradientSteps %d < 1", c.GradientSteps)
	}
	if c.CliqueLimit == 0 {
		c.CliqueLimit = 16
	}
	if c.CliqueLimit < 2 {
		return c, fmt.Errorf("gfm: clique limit %d < 2", c.CliqueLimit)
	}
	var err error
	if c.Refine, err = c.Refine.Normalize(); err != nil {
		return c, err
	}
	return c, nil
}

// Result reports a GFM run.
type Result struct {
	// Cut of the final bipartitioning (all nets).
	Cut int
	// Rounds actually performed (including the final non-improving
	// one).
	Rounds int
}

// Bipartition runs GFM on h from a random start.
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
	// Gradient step size: 1/λmax bound; λmax ≤ 2·maxdeg (Gershgorin).
	alpha := 0.0
	if md := g.MaxDegree(); md > 0 {
		alpha = 1.0 / (2 * md)
	}

	p, fres, err := fm.Partition(h, nil, cfg.Refine, rng)
	if err != nil {
		return nil, Result{}, err
	}
	best := p
	bestCut := fres.Cut
	res := Result{Cut: bestCut, Rounds: 1}

	x := make([]float64, n)
	y := make([]float64, n)
	for round := 1; round < cfg.MaxRounds; round++ {
		// Indicator of the current best solution.
		for v := 0; v < n; v++ {
			if best.Part[v] == 0 {
				x[v] = -1
			} else {
				x[v] = 1
			}
		}
		// Gradient descent on ½ xᵀLx.
		if alpha > 0 {
			for s := 0; s < cfg.GradientSteps; s++ {
				g.LaplacianMulAdd(x, y)
				for i := range x {
					x[i] -= alpha * y[i]
				}
			}
		}
		// Round back to a balanced bipartition at the area median.
		cand := &hypergraph.Partition{Part: netmodel.SplitAtAreaMedian(h, x), K: 2}
		cres, err := fm.Refine(h, cand, cfg.Refine, rng)
		if err != nil {
			return nil, Result{}, err
		}
		res.Rounds++
		if cres.Cut < bestCut {
			best = cand
			bestCut = cres.Cut
		} else {
			break
		}
	}
	res.Cut = bestCut
	return best, res, nil
}
