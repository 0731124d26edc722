package core

import (
	"context"
	"math/rand"

	"mlpart/internal/coarsen"
	"mlpart/internal/fm"
	"mlpart/internal/hypergraph"
)

// VCycle performs iterated multilevel refinement on an existing
// bipartition: the netlist is re-coarsened with *restricted* matching
// (only cell pairs in the same block may merge, so every coarse
// solution is exactly representable), the current solution is pushed
// to the coarsest level, and the uncoarsening sweep refines it at
// every level. Cycles repeat while they improve, up to maxCycles.
//
// This is the "V-cycle" of the later multilevel literature (hMETIS);
// the paper's §V idea of spending more effort at the top levels
// composes naturally with it. Returns the refined partition (the
// input is not modified) and the final cut.
func VCycle(h *hypergraph.Hypergraph, p *hypergraph.Partition, maxCycles int, cfg Config, rng *rand.Rand) (*hypergraph.Partition, int, error) {
	//mllint:ignore ctx-thread non-Ctx compatibility wrapper: rooting a fresh context is its documented contract
	return VCycleCtx(context.Background(), h, p, maxCycles, cfg, rng)
}

// VCycleCtx is VCycle with cooperative cancellation: the context is
// polled between cycles and threaded into each cycle's matching and
// refinement. Since every cycle starts from (a clone of) the incoming
// solution, cancellation simply stops iterating and returns the best
// solution seen — which is never worse than the input.
func VCycleCtx(ctx context.Context, h *hypergraph.Hypergraph, p *hypergraph.Partition, maxCycles int, cfg Config, rng *rand.Rand) (*hypergraph.Partition, int, error) {
	cfg, err := cfg.Normalize()
	if err != nil {
		return nil, 0, err
	}
	if ctx == nil {
		ctx = context.Background() //mllint:ignore ctx-thread normalizing a nil ctx from the caller; there is no ambient deadline to discard
	}
	cfg.Refine.Stop = mergeStop(cfg.Refine.Stop, ctx)
	if err := p.Validate(h.NumCells()); err != nil {
		return nil, 0, err
	}
	if maxCycles < 1 {
		maxCycles = 1
	}
	// One workspace bundle shared by every cycle: the restricted
	// hierarchies have the same shape, so the scratch arrays stabilize
	// after the first cycle. Projection buffers stay per-cycle locals —
	// the winning candidate escapes into best below.
	ws := &pipelineWS{}
	defer ws.startPool(cfg.IntraParallelism)()
	cfg.Refine.WS = &ws.refine
	cfg.Refine.Par = ws.pool
	ws.refine.Reserve(cfg.Refine, h.NumCells(), h.NumNets())
	best := p.Clone()
	bestCut := best.WeightedCut(h)
	for cycle := 0; cycle < maxCycles; cycle++ {
		if ctx.Err() != nil {
			break
		}
		cand, err := oneVCycle(ctx, h, best, cfg, rng, ws)
		if err != nil {
			return nil, 0, err
		}
		if cut := cand.WeightedCut(h); cut < bestCut {
			best, bestCut = cand, cut
		} else {
			break
		}
	}
	return best, bestCut, nil
}

// oneVCycle rebuilds a restricted hierarchy around p and refines.
func oneVCycle(ctx context.Context, h *hypergraph.Hypergraph, p *hypergraph.Partition, cfg Config, rng *rand.Rand, ws *pipelineWS) (*hypergraph.Partition, error) {
	type lv struct {
		h *hypergraph.Hypergraph
		c *hypergraph.Clustering
	}
	levels := []lv{{h: h}}
	parts := []*hypergraph.Partition{p.Clone()}
	cur := h
	curP := p
	for cur.NumCells() > cfg.Threshold && len(levels) <= cfg.MaxLevels {
		if ctx.Err() != nil {
			break
		}
		mc := coarsen.Config{Ratio: cfg.Ratio, SameBlockOnly: curP, Stop: mergeStop(nil, ctx), WS: &ws.match, Par: ws.pool}
		c, err := coarsen.Match(cur, mc, rng)
		if err != nil {
			return nil, err
		}
		coarse, err := hypergraph.InduceWSPar(cur, c, &ws.induce, ws.pool)
		if err == nil && cfg.MergeParallelNets {
			coarse, err = hypergraph.MergeParallelNets(coarse)
		}
		if err != nil {
			return nil, err
		}
		if coarse.NumCells() >= cur.NumCells() {
			break
		}
		// Push the partition up: every cluster is block-pure by
		// construction, so take any member's block.
		cp := hypergraph.NewPartition(coarse.NumCells(), curP.K)
		for v, k := range c.CellToCluster {
			cp.Part[k] = curP.Part[v]
		}
		levels[len(levels)-1].c = c
		levels = append(levels, lv{h: coarse})
		parts = append(parts, cp)
		cur, curP = coarse, cp
	}
	// Refine from the coarsest down, seeding each level with the
	// pushed-up solution.
	sol := parts[len(parts)-1]
	var err error
	if _, err = fm.Refine(levels[len(levels)-1].h, sol, cfg.Refine, rng); err != nil {
		return nil, err
	}
	if len(levels) > 1 {
		// Alternate two per-cycle buffers down the hierarchy; sol
		// escapes to the caller, so these cannot live in ws.
		buf, scratch := projectionBuffers(h.NumCells(), sol.K)
		copyInto(buf, sol)
		sol = buf
		for i := len(levels) - 2; i >= 0; i-- {
			if err = hypergraph.ProjectInto(levels[i].c, sol, scratch); err != nil {
				return nil, err
			}
			sol, scratch = scratch, sol
			if _, err = fm.RefineBalanced(levels[i].h, sol, cfg.Refine, rng); err != nil {
				return nil, err
			}
		}
	}
	return sol, nil
}
