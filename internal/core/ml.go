// Package core implements ML, the multilevel circuit partitioning
// algorithm of Alpert, Huang and Kahng (DAC 1997, Fig. 2): the
// netlist is recursively coarsened with the Match algorithm while it
// has more than T modules, the coarsest netlist is partitioned, and
// the solution is projected back level by level with FM/CLIP
// refinement at every level.
package core

import (
	"context"
	"math/rand"

	"mlpart/internal/audit"
	"mlpart/internal/faultinject"
	"mlpart/internal/fm"
	"mlpart/internal/hypergraph"
	"mlpart/internal/telemetry"
)

// Config parameterizes the ML algorithm.
type Config struct {
	// Threshold is the coarsening threshold T: coarsening proceeds
	// while |V_i| > T. Default 35 (the paper's bipartitioning
	// experiments; quadrisection uses T = 100).
	Threshold int
	// Ratio is the matching ratio R passed to Match. Default 1.0;
	// the paper's best bipartitioning results use R = 0.5.
	Ratio float64
	// StallFraction is the stall rule's fraction f passed to Match
	// (coarsen.Config.StallFraction): coarsening ends at the first
	// level whose sweep runs out before R and keeps more than f of the
	// movable cells. 0 means coarsen.DefaultStallFraction; 1 is the
	// paper's Fig. 2, which the experiment tables use.
	StallFraction float64
	// Refine configures the FMPartition engine used at every level
	// (engine FM gives ML_F, engine CLIP gives ML_C).
	Refine fm.Config
	// CoarsestStarts > 1 partitions the coarsest netlist that many
	// times from independent random starts and keeps the best (§V
	// future work: spend more CPU at the top levels). Default 1.
	CoarsestStarts int
	// MaxLevels caps the hierarchy depth as a safety valve against
	// degenerate instances where Match cannot shrink the netlist.
	// 0 means a generous default of 64.
	MaxLevels int
	// MergeParallelNets merges identical coarse nets into single
	// weighted nets after each induction (hypergraph.MergeParallelNets).
	// The weighted cut is provably unchanged, but the coarse netlists
	// shrink, which speeds refinement — the hMETIS-era optimization
	// that the paper's Definition 1 forgoes (ablation-mergenets
	// measures it).
	MergeParallelNets bool
	// Audit enables from-scratch invariant checks (package audit) at
	// every level transition: clustering well-formedness and area
	// conservation after each coarsening step, and partition validity,
	// balance, and incremental-vs-recomputed cut agreement after each
	// refinement. O(pins) per transition; off by default.
	Audit bool
	// Inject optionally arms deterministic fault injection for this
	// attempt (sites coarsen.match, fm.pass, core.project,
	// core.rebalance). The injector is propagated into the coarsening
	// and refinement configs; nil costs one pointer check per site.
	Inject *faultinject.Injector
	// Telemetry optionally collects per-level coarsening stats,
	// per-pass refinement stats, rebalance counters and stage
	// timings for this attempt. It is propagated into the coarsening
	// and refinement configs; nil costs one pointer check per site.
	Telemetry *telemetry.Collector
	// Scratch, when non-nil, makes the attempt reuse a caller-owned
	// workspace bundle instead of creating a fresh one — see Scratch
	// for the single-goroutine contract. RunStarts passes each start
	// its worker's bundle; nil creates a bundle for this attempt.
	Scratch *Scratch
}

// Normalize fills defaults and validates.
func (c Config) Normalize() (Config, error) {
	lc, err := c.levels().normalize(35)
	if err != nil {
		return c, err
	}
	c.Threshold, c.Ratio, c.StallFraction, c.CoarsestStarts, c.MaxLevels = lc.threshold, lc.ratio, lc.stall, lc.starts, lc.maxLevels
	if c.Refine, err = c.Refine.Normalize(); err != nil {
		return c, err
	}
	return c, nil
}

// Result reports what a multilevel run did.
type Result struct {
	// Cut of the final bipartitioning of H_0 (all nets counted).
	Cut int
	// Levels is m, the number of coarsening levels used.
	Levels int
	// CoarsestCells is |V_m|.
	CoarsestCells int
	// LevelCells records |V_i| for i = 0..m.
	LevelCells []int
	// Interrupted reports that cancellation (context or a Stop hook)
	// cut the run short. The returned partition is still feasible: the
	// remaining levels were projected and rebalanced without engine
	// passes.
	Interrupted bool
}

// levels returns the level-driver parameters of c.
func (c Config) levels() levelConfig {
	return levelConfig{threshold: c.Threshold, ratio: c.Ratio, stall: c.StallFraction, starts: c.CoarsestStarts, maxLevels: c.MaxLevels, merge: c.MergeParallelNets, audit: c.Audit, inject: c.Inject, tel: c.Telemetry}
}

// Bipartition runs the ML algorithm of Fig. 2 on h and returns the
// final bipartitioning P_0 = {X_0, Y_0}.
func Bipartition(h *hypergraph.Hypergraph, cfg Config, rng *rand.Rand) (*hypergraph.Partition, Result, error) {
	//mllint:ignore ctx-thread non-Ctx compatibility wrapper: rooting a fresh context is its documented contract
	return BipartitionCtx(context.Background(), h, cfg, rng)
}

// BipartitionCtx is Bipartition with cooperative cancellation. The
// context is polled at level transitions and at FM pass boundaries;
// once it is done, at most one FM pass of extra work happens before
// the run winds down: the current solution is projected to H_0 and
// rebalanced (no engine passes), so the returned partition is always
// feasible, with Result.Interrupted set. Cancellation is not an
// error.
//
// Internal invariant panics at any stage are recovered at the stage
// boundary and returned as a *PanicError together with the best
// feasible partition assembled from the work that completed.
func BipartitionCtx(ctx context.Context, h *hypergraph.Hypergraph, cfg Config, rng *rand.Rand) (*hypergraph.Partition, Result, error) {
	cfg, err := cfg.Normalize()
	if err != nil {
		return nil, Result{}, err
	}
	ctx = orBackground(ctx)
	// The Scratch's bundle (a supervisor worker's), or a fresh one for
	// a call given none.
	ws := cfg.Scratch.attemptWS()
	p, run, err := runLevels(ctx, level{h: h}, cfg.levels(), newFMLevels(ctx, cfg, ws, h), rng, ws)
	res := Result{Levels: run.levels(), CoarsestCells: run.cells[len(run.cells)-1], LevelCells: run.cells, Interrupted: run.interrupted}
	if finished(p, err) {
		res.Cut = p.Cut(h)
	}
	return p, res, err
}

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
// refinement. Every cycle starts from a clone of the best solution,
// so cancellation simply stops iterating and returns the best
// solution seen, which is never worse than the input. A recovered
// panic inside a cycle ends the iteration the same way and is
// returned as a *PanicError alongside that solution.
func VCycleCtx(ctx context.Context, h *hypergraph.Hypergraph, p *hypergraph.Partition, maxCycles int, cfg Config, rng *rand.Rand) (*hypergraph.Partition, int, error) {
	cfg, err := cfg.Normalize()
	if err != nil {
		return nil, 0, err
	}
	ctx = orBackground(ctx)
	if err := p.Validate(h.NumCells()); err != nil {
		return nil, 0, err
	}
	if maxCycles < 1 {
		maxCycles = 1
	}
	// One workspace bundle shared by every cycle: the restricted
	// hierarchies have the same shape, so the scratch arrays and the
	// hierarchy store stabilize after the first cycle.
	ws := cfg.Scratch.attemptWS()
	eng := newFMLevels(ctx, cfg, ws, h)
	best := p.Clone()
	bestCut := best.WeightedCut(h)
	for cycle := 0; cycle < maxCycles && ctx.Err() == nil; cycle++ {
		cand, _, err := runLevels(ctx, level{h: h, part: best.Clone()}, cfg.levels(), eng, rng, ws)
		if !finished(cand, err) {
			if _, ok := AsPanicError(err); ok {
				return best, bestCut, err
			}
			return nil, 0, err
		}
		if cut := cand.WeightedCut(h); cut < bestCut {
			best, bestCut = cand, cut
		}
		if err != nil || best != cand {
			// A recovered panic, or a cycle that did not improve.
			return best, bestCut, err
		}
	}
	return best, bestCut, nil
}

// finished reports whether a level-driver run reached H_0: it returned
// a partition with no error or with a recovered panic.
func finished(p *hypergraph.Partition, err error) bool {
	if p == nil {
		return false
	}
	_, ok := AsPanicError(err)
	return err == nil || ok
}

// fmLevels is the level driver's k = 2 refiner: FMPartition (package
// fm) from random starts at the coarsest level, FM/CLIP refinement at
// every other.
type fmLevels struct{ cfg fm.Config }

// newFMLevels threads the attempt's context, fault injector, telemetry
// and workspace into cfg.Refine, and reserves the refinement workspace
// once for h: uncoarsening visits ever larger levels, and the finest is
// h.
func newFMLevels(ctx context.Context, cfg Config, ws *pipelineWS, h *hypergraph.Hypergraph) fmLevels {
	r := cfg.Refine
	r.Stop = mergeStop(r.Stop, ctx)
	r.Inject = cfg.Inject
	r.Telemetry = cfg.Telemetry
	r.WS = &ws.refine
	ws.refine.Reserve(r, h.NumCells(), h.NumNets())
	return fmLevels{cfg: r}
}

func (e fmLevels) k() int                       { return 2 }
func (e fmLevels) tolerance() float64           { return e.cfg.Tolerance }
func (e fmLevels) cost(r fm.Result) int         { return r.Cut }
func (e fmLevels) interrupted(r fm.Result) bool { return r.Interrupted }

func (e fmLevels) start(l *level, rng *rand.Rand) (*hypergraph.Partition, fm.Result, error) {
	return fm.Partition(l.h, nil, e.cfg, rng)
}

func (e fmLevels) refine(l *level, p *hypergraph.Partition, rng *rand.Rand) (fm.Result, error) {
	return fm.Refine(l.h, p, e.cfg, rng)
}

func (e fmLevels) degraded(h *hypergraph.Hypergraph, p *hypergraph.Partition) fm.Result {
	cut := p.WeightedCut(h)
	return fm.Result{Cut: cut, InitialCut: cut, ActiveCut: -1}
}

// audit cross-checks a level solution: validity, balance, the
// reported cut against a from-scratch recount, and (when the engine
// ran and maintains one) the incremental active cut.
func (e fmLevels) audit(l *level, p *hypergraph.Partition, r fm.Result, engineRan bool) error {
	bound := hypergraph.Balance(l.h, 2, e.cfg.Tolerance)
	chk := audit.NoChecks()
	chk.K = 2
	chk.Bound = &bound
	if engineRan {
		chk.WeightedCut = r.Cut
		if r.ActiveCut >= 0 {
			chk.ActiveCut = r.ActiveCut
			chk.MaxNetSize = e.cfg.MaxNetSize
			if chk.MaxNetSize < 0 {
				chk.MaxNetSize = 0 // audit convention: <=0 means no cutoff
			}
		}
	}
	return audit.CheckPartition(l.h, p, chk)
}

// Hierarchy exposes the coarsening phase on its own: it returns the
// sequence of hypergraphs H_0..H_m and the clusterings between them.
// Every level is complete, with both CSR directions in arrays of its
// own.
// Useful for inspecting coarsening behaviour (examples, tests,
// experiments on hierarchy depth).
func Hierarchy(h *hypergraph.Hypergraph, cfg Config, rng *rand.Rand) ([]*hypergraph.Hypergraph, []*hypergraph.Clustering, error) {
	cfg, err := cfg.Normalize()
	if err != nil {
		return nil, nil, err
	}
	// The bundle, and the hierarchy store the levels live in, are
	// dropped on return, so the levels returned are the caller's alone.
	ws := &pipelineWS{}
	//mllint:ignore ctx-thread Hierarchy is a non-cancellable inspection helper; coarsening alone is cheap
	levels, _, err := coarsenLevels(context.Background(), level{h: h}, cfg.levels(), rng, ws)
	if err != nil {
		return nil, nil, err
	}
	hs := make([]*hypergraph.Hypergraph, len(levels))
	cs := make([]*hypergraph.Clustering, 0, len(levels)-1)
	for i, l := range levels {
		if i > 0 {
			// The sweep keeps one cell side for the level in use; the
			// caller gets every level complete.
			ws.induce.OwnCellSide(l.h)
		}
		hs[i] = l.h
		if l.c != nil {
			cs = append(cs, l.c)
		}
	}
	return hs, cs, nil
}
