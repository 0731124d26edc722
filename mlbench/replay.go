package main

import (
	"fmt"
	"math/rand"
	"slices"

	"mlpart"
	"mlpart/internal/coarsen"
	"mlpart/internal/fm"
	"mlpart/internal/hypergraph"
	"mlpart/internal/intrapar"
	"mlpart/internal/kway"
)

// maxLevels is the pipeline's default hierarchy depth cap.
const maxLevels = 64

// replay runs op o's multilevel pipeline on h through the layers'
// public functions, recording one span per layer call under parent,
// and returns the final partition. It reproduces the single-start,
// uncancelled path of core.BipartitionCtx (k=2) and
// core.QuadrisectCtx (k=4): the same defaults, the same RNG stream,
// the same pool width and the same call order, so its partition must
// equal the entry point's byte for byte. The one split is the
// balance step: k=2 refinement calls fm.RefineBalanced, which is a
// balance check, a rebalance when needed, and fm.Refine; the replay
// makes those calls itself so the balance step gets its own span.
func replay(tr *tracer, id string, parent int, h *mlpart.Hypergraph, o op) (*mlpart.Partition, error) {
	opt := o.opt
	threshold, ratio, tol := opt.Threshold, opt.MatchingRatio, opt.Tolerance
	if ratio == 0 {
		ratio = 0.5
	}
	if tol == 0 {
		tol = tolerance
	}
	if o.k == 4 {
		// Exact comparison, as in mlpart.quadrisectCtx: 0.5 is the
		// assigned default, never the result of arithmetic.
		if ratio == 0.5 && threshold == 0 {
			ratio = 1.0 // the paper's quadrisection setup: R = 1.0, T = 100
		}
		if threshold == 0 {
			threshold = 100
		}
	} else if threshold == 0 {
		threshold = 35
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	var pool *intrapar.Pool
	if opt.IntraParallelism > 0 {
		pool = intrapar.New(opt.IntraParallelism)
		defer pool.Close()
	}
	var matchWS coarsen.Workspace
	var induceWS hypergraph.InduceWorkspace
	var refineWS fm.Workspace
	matchCfg := coarsen.Config{Ratio: ratio, WS: &matchWS, Par: pool}
	fmCfg := fm.Config{Engine: opt.Engine, Tolerance: tol, WS: &refineWS, Par: pool}
	kwCfg := kway.Config{K: 4, Engine: opt.Engine, Objective: kway.SumOfDegrees, Tolerance: tol}

	// Coarsening: Match, then Induce, per level.
	hs := []*hypergraph.Hypergraph{h}
	var cs []*hypergraph.Clustering
	for cur := h; cur.NumCells() > threshold && len(hs) <= maxLevels; {
		lvl, n := len(hs)-1, cur.NumCells()
		s := tr.begin(id, "coarsen.match", lvl, n, parent)
		c, err := coarsen.Match(cur, matchCfg, rng)
		tr.end(s)
		if err != nil {
			return nil, fmt.Errorf("level %d match: %w", lvl, err)
		}
		s = tr.begin(id, "hypergraph.induce", lvl, n, parent)
		coarse, err := hypergraph.InduceWSPar(cur, c, &induceWS, pool)
		tr.end(s)
		if err != nil {
			return nil, fmt.Errorf("level %d induce: %w", lvl, err)
		}
		if coarse.NumCells() >= n {
			break
		}
		hs, cs, cur = append(hs, coarse), append(cs, c), coarse
	}

	// The coarsest level from a random start.
	top := len(hs) - 1
	var p *hypergraph.Partition
	var err error
	s := tr.begin(id, "refine.coarsest", top, hs[top].NumCells(), parent)
	if o.k == 4 {
		p, _, err = kway.Partition(hs[top], nil, kwCfg, rng)
	} else {
		p, _, err = fm.Partition(hs[top], nil, fmCfg, rng)
	}
	tr.end(s)
	if err != nil {
		return nil, fmt.Errorf("coarsest partition: %w", err)
	}

	// Uncoarsening: project, balance, refine, per level. Two buffers
	// sized for the finest level alternate, as in core.
	scratch := &hypergraph.Partition{Part: make([]int32, 0, h.NumCells()), K: p.K}
	if top > 0 {
		p = &hypergraph.Partition{Part: append(make([]int32, 0, h.NumCells()), p.Part...), K: p.K}
	}
	for i := top - 1; i >= 0; i-- {
		fine, n := hs[i], hs[i].NumCells()
		s := tr.begin(id, "hypergraph.project", i, n, parent)
		err := hypergraph.ProjectInto(cs[i], p, scratch)
		tr.end(s)
		if err != nil {
			return nil, fmt.Errorf("level %d project: %w", i, err)
		}
		p, scratch = scratch, p
		s = tr.begin(id, "hypergraph.balance", i, n, parent)
		if bound := hypergraph.Balance(fine, o.k, tol); !p.IsBalanced(fine, bound) {
			p.Rebalance(fine, bound, rng)
		}
		tr.end(s)
		s = tr.begin(id, "refine.level", i, n, parent)
		if o.k == 4 {
			_, err = kway.Refine(fine, p, kwCfg, rng)
		} else {
			_, err = fm.Refine(fine, p, fmCfg, rng)
		}
		tr.end(s)
		if err != nil {
			return nil, fmt.Errorf("level %d refine: %w", i, err)
		}
	}
	return p, nil
}

// samePartition requires b to equal the reference partition a byte
// for byte.
func samePartition(what string, a, b *mlpart.Partition) error {
	if b == nil || a.K != b.K || !slices.Equal(a.Part, b.Part) {
		return fmt.Errorf("%s partition differs from the untraced entry point's", what)
	}
	return nil
}
