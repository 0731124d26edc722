// Package core implements ML, the multilevel circuit partitioning
// algorithm of Alpert, Huang and Kahng (DAC 1997, Fig. 2): the
// netlist is recursively coarsened with the Match algorithm while it
// has more than T modules, the coarsest netlist is partitioned, and
// the solution is projected back level by level with FM/CLIP
// refinement at every level.
package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"mlpart/internal/audit"
	"mlpart/internal/coarsen"
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
	// IntraParallelism sizes the intra-attempt worker pool. Match
	// scoring, induce-CSR assembly and the FM/CLIP gain recompute have
	// one implementation that runs on the pool at every width — 0 (the
	// default) gives them the nil, one-wide inline pool — and results
	// never depend on the width. Negative values are rejected.
	IntraParallelism int
	// MergeParallelNets merges identical coarse nets into single
	// weighted nets after each induction (hypergraph.MergeParallelNets).
	// The weighted cut is provably unchanged, but the coarse netlists
	// shrink, which speeds refinement — the hMETIS-era optimization
	// that the paper's Definition 1 forgoes (ablation-mergenets
	// measures it). The induction itself is the same pool-driven
	// assembly either way.
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
	// for the single-goroutine contract. Nil keeps the default
	// bundle-per-attempt behavior.
	Scratch *Scratch
}

// Normalize fills defaults and validates.
func (c Config) Normalize() (Config, error) {
	if c.Threshold == 0 {
		c.Threshold = 35
	}
	if c.Threshold < 2 {
		return c, fmt.Errorf("core: threshold %d < 2", c.Threshold)
	}
	if c.Ratio == 0 {
		c.Ratio = 1.0
	}
	if math.IsNaN(c.Ratio) || c.Ratio <= 0 || c.Ratio > 1 {
		return c, fmt.Errorf("core: matching ratio %v outside (0,1]", c.Ratio)
	}
	if c.CoarsestStarts == 0 {
		c.CoarsestStarts = 1
	}
	if c.CoarsestStarts < 1 {
		return c, fmt.Errorf("core: CoarsestStarts %d < 1", c.CoarsestStarts)
	}
	if c.MaxLevels == 0 {
		c.MaxLevels = 64
	}
	if c.MaxLevels < 1 {
		return c, fmt.Errorf("core: MaxLevels %d < 1", c.MaxLevels)
	}
	if c.IntraParallelism < 0 {
		return c, fmt.Errorf("core: IntraParallelism %d < 0", c.IntraParallelism)
	}
	var err error
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
	// RefineResults holds the per-level refinement summaries, index
	// 0 = coarsest ... last = H_0.
	RefineResults []fm.Result
	// Interrupted reports that cancellation (context or a Stop hook)
	// cut the run short. The returned partition is still feasible: the
	// remaining levels were projected and rebalanced without engine
	// passes.
	Interrupted bool
}

// level is one rung of the hierarchy: the hypergraph plus the
// clustering that produced the *next* (coarser) hypergraph.
type level struct {
	h *hypergraph.Hypergraph
	c *hypergraph.Clustering // nil at the coarsest level
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
	if ctx == nil {
		ctx = context.Background() //mllint:ignore ctx-thread normalizing a nil ctx from the caller; there is no ambient deadline to discard
	}
	cfg.Refine.Stop = mergeStop(cfg.Refine.Stop, ctx)
	cfg.Refine.Inject = cfg.Inject
	cfg.Refine.Telemetry = cfg.Telemetry
	// One workspace bundle per attempt (or the caller's shared Scratch
	// for batched runs): every level of the run reuses the same scratch
	// memory, single-goroutine by construction. The intra-parallelism
	// pool lives exactly as long as the attempt.
	ws := cfg.Scratch.attemptWS()
	defer ws.startPool(cfg.IntraParallelism)()
	cfg.Refine.WS = &ws.refine
	cfg.Refine.Par = ws.pool
	ws.refine.Reserve(cfg.Refine, h.NumCells(), h.NumNets())
	cfg.Telemetry.RecordIntraWorkers(cfg.IntraParallelism)
	var coarsenRegions int64
	defer func() {
		// Every region dispatched after the coarsening phase belongs to
		// refinement (match/induce run only inside buildHierarchy).
		cfg.Telemetry.RecordParRegions(telemetry.StageRefine, ws.pool.Regions()-coarsenRegions)
	}()

	levels, res, err := buildHierarchy(ctx, h, cfg, rng, ws)
	coarsenRegions = ws.pool.Regions()
	cfg.Telemetry.RecordParRegions(telemetry.StageCoarsen, coarsenRegions)
	var firstErr *PanicError
	if err != nil {
		pe, ok := AsPanicError(err)
		if !ok {
			return nil, res, err
		}
		// A coarsening panic leaves a valid hierarchy prefix; continue
		// the run on it and report the panic at the end.
		firstErr = pe
	}

	// Step 6: partition the coarsest netlist from a random start.
	coarsest := levels[len(levels)-1].h
	var p *hypergraph.Partition
	var rres fm.Result
	engineOK := true
	cfg.Telemetry.SetLevel(len(levels) - 1)
	timer := cfg.Telemetry.StartTimer(telemetry.StageRefine)
	gerr := Guard("coarsest-partition", len(levels)-1, func() error {
		var err error
		p, rres, err = partitionCoarsest(coarsest, cfg, rng)
		return err
	})
	timer.Stop()
	if gerr != nil {
		pe, ok := AsPanicError(gerr)
		if !ok {
			return nil, res, gerr
		}
		if firstErr == nil {
			firstErr = pe
		}
		// Degraded fallback: a random balanced partition of the
		// coarsest netlist, refined by projection/rebalance only.
		p = hypergraph.RandomPartition(coarsest, 2, cfg.Refine.Tolerance, rng)
		rres = fm.Result{Cut: p.WeightedCut(coarsest), InitialCut: p.WeightedCut(coarsest), ActiveCut: -1}
		engineOK = false
	}
	if rres.Interrupted {
		res.Interrupted = true
	}
	res.RefineResults = append(res.RefineResults, rres)
	if cfg.Audit {
		if err := auditRefined(coarsest, p, cfg, rres, engineOK); err != nil {
			return p, res, fmt.Errorf("core: level %d: %w", len(levels)-1, err)
		}
	}

	// Steps 7–9: project and refine down to H_0. After a recovered
	// engine panic (or a synthetic cancellation) the remaining levels
	// are projected and rebalanced without engine passes (the engine
	// state is no longer trusted).
	cancelled := false
	if len(levels) > 1 {
		// Move the coarsest solution into a pre-sized buffer; the
		// sweep then alternates two buffers via ProjectInto instead of
		// allocating a partition per level.
		buf, scratch := projectionBuffers(h.NumCells(), 2)
		copyInto(buf, p)
		p = buf
		for i := len(levels) - 2; i >= 0; i-- {
			var act faultinject.Action
			cfg.Telemetry.SetLevel(i)
			ptimer := cfg.Telemetry.StartTimer(telemetry.StageProject)
			gerr := Guard("project", i, func() error {
				if cfg.Inject != nil {
					act = cfg.Inject.Fire(faultinject.SiteCoreProject)
				}
				if err := hypergraph.ProjectInto(levels[i].c, p, scratch); err != nil {
					return err
				}
				p, scratch = scratch, p
				return nil
			})
			ptimer.Stop()
			if gerr != nil {
				// A projection failure (or an injected panic before it) is
				// unrecoverable for this attempt: no fine-level solution
				// exists yet. The supervisor's retry path handles it.
				return nil, res, gerr
			}
			fineH := levels[i].h
			switch act {
			case faultinject.ActCancel:
				// Synthetic cancellation: degrade exactly like a real one.
				cancelled = true
				res.Interrupted = true
			case faultinject.ActCorrupt:
				// Perturb the projected solution; it stays valid, and the
				// rebalance/refinement below absorbs the damage.
				p.Part[rng.Intn(len(p.Part))] ^= 1
			}
			if cfg.Inject != nil {
				gerr := Guard("rebalance", i, func() error {
					switch cfg.Inject.Fire(faultinject.SiteCoreRebalance) {
					case faultinject.ActCancel:
						cancelled = true
						res.Interrupted = true
					case faultinject.ActCorrupt:
						p.Part[rng.Intn(len(p.Part))] ^= 1
					}
					return nil
				})
				if gerr != nil {
					// Only a panic can surface here; degrade to the
					// project-and-rebalance path, which keeps feasibility.
					pe, _ := AsPanicError(gerr)
					if firstErr == nil {
						firstErr = pe
					}
					engineOK = false
				}
			}
			engineRan := false
			if engineOK && !cancelled {
				// The projected solution may violate the balance bound for
				// H_i (A(v*) can decrease during uncoarsening, §III.B);
				// RefineBalanced rebalances before refining, in place — the
				// Partition-style clone would defeat the buffer reuse. A
				// recovered mid-refine panic leaves p partially refined;
				// it stays a valid bipartition and the degraded path below
				// restores the balance bound.
				rtimer := cfg.Telemetry.StartTimer(telemetry.StageRefine)
				gerr := Guard("refine", i, func() error {
					var err error
					rres, err = fm.RefineBalanced(fineH, p, cfg.Refine, rng)
					return err
				})
				rtimer.Stop()
				if gerr != nil {
					pe, ok := AsPanicError(gerr)
					if !ok {
						return nil, res, gerr
					}
					if firstErr == nil {
						firstErr = pe
					}
					engineOK = false
				} else {
					engineRan = true
					if rres.Interrupted {
						res.Interrupted = true
					}
					res.RefineResults = append(res.RefineResults, rres)
				}
			}
			if !engineRan {
				bound := hypergraph.Balance(fineH, 2, cfg.Refine.Tolerance)
				if !p.IsBalanced(fineH, bound) {
					btimer := cfg.Telemetry.StartTimer(telemetry.StageRebalance)
					moved := p.Rebalance(fineH, bound, rng)
					btimer.Stop()
					cfg.Telemetry.RecordRebalance(moved)
				}
				rres = fm.Result{Cut: p.WeightedCut(fineH), InitialCut: p.WeightedCut(fineH), ActiveCut: -1}
			}
			if cfg.Audit {
				if err := auditRefined(fineH, p, cfg, rres, engineRan); err != nil {
					return p, res, fmt.Errorf("core: level %d: %w", i, err)
				}
			}
		}
	}
	res.Cut = p.Cut(h)
	if firstErr != nil {
		return p, res, firstErr
	}
	return p, res, nil
}

// auditRefined cross-checks a refined level solution: validity,
// balance, the reported cut against a from-scratch recount, and (when
// the engine ran and maintains one) the incremental active cut.
func auditRefined(h *hypergraph.Hypergraph, p *hypergraph.Partition, cfg Config, rres fm.Result, engineOK bool) error {
	bound := hypergraph.Balance(h, 2, cfg.Refine.Tolerance)
	chk := audit.NoChecks()
	chk.K = 2
	chk.Bound = &bound
	if engineOK {
		chk.WeightedCut = rres.Cut
		if rres.ActiveCut >= 0 {
			chk.ActiveCut = rres.ActiveCut
			chk.MaxNetSize = cfg.Refine.MaxNetSize
			if chk.MaxNetSize < 0 {
				chk.MaxNetSize = 0 // audit convention: <=0 means no cutoff
			}
		}
	}
	return audit.CheckPartition(h, p, chk)
}

// buildHierarchy performs the coarsening phase (Steps 1–5 of Fig. 2).
// Cancellation stops coarsening early (marking Result.Interrupted);
// a panic inside Match/Induce is recovered and returned as a
// *PanicError alongside the valid hierarchy prefix built so far.
func buildHierarchy(ctx context.Context, h *hypergraph.Hypergraph, cfg Config, rng *rand.Rand, ws *pipelineWS) ([]level, Result, error) {
	res := Result{}
	matchCfg := coarsen.Config{Ratio: cfg.Ratio, Stop: mergeStop(nil, ctx), Inject: cfg.Inject, Telemetry: cfg.Telemetry, WS: &ws.match, Par: ws.pool}
	levels := []level{{h: h}}
	res.LevelCells = append(res.LevelCells, h.NumCells())
	cur := h
	for cur.NumCells() > cfg.Threshold && len(levels) <= cfg.MaxLevels {
		if ctx.Err() != nil {
			res.Interrupted = true
			break
		}
		var c *hypergraph.Clustering
		var coarseH *hypergraph.Hypergraph
		cfg.Telemetry.SetLevel(len(levels) - 1)
		timer := cfg.Telemetry.StartTimer(telemetry.StageCoarsen)
		gerr := Guard("coarsen", len(levels)-1, func() error {
			var err error
			c, err = coarsen.Match(cur, matchCfg, rng)
			if err != nil {
				return err
			}
			coarseH, err = hypergraph.InduceWSPar(cur, c, &ws.induce, ws.pool)
			if err == nil && cfg.MergeParallelNets {
				coarseH, err = hypergraph.MergeParallelNets(coarseH)
			}
			return err
		})
		timer.Stop()
		if gerr != nil {
			res.Levels = len(levels) - 1
			res.CoarsestCells = cur.NumCells()
			return levels, res, gerr
		}
		if coarseH.NumCells() >= cur.NumCells() {
			// Match made no progress (e.g. netless instance with
			// R ≈ 0); stop coarsening rather than loop forever.
			break
		}
		if cfg.Audit {
			if err := audit.CheckClustering(cur, c, coarseH); err != nil {
				res.Levels = len(levels) - 1
				res.CoarsestCells = cur.NumCells()
				return levels, res, fmt.Errorf("core: level %d: %w", len(levels)-1, err)
			}
			if err := audit.CheckHypergraph(coarseH); err != nil {
				res.Levels = len(levels) - 1
				res.CoarsestCells = cur.NumCells()
				return levels, res, fmt.Errorf("core: level %d: %w", len(levels)-1, err)
			}
		}
		cfg.Telemetry.RecordLevel(coarseH.NumCells(), coarseH.NumNets(), coarseH.NumPins(), coarseH.MaxCellArea())
		levels[len(levels)-1].c = c
		levels = append(levels, level{h: coarseH})
		res.LevelCells = append(res.LevelCells, coarseH.NumCells())
		cur = coarseH
	}
	res.Levels = len(levels) - 1
	res.CoarsestCells = cur.NumCells()
	return levels, res, nil
}

// partitionCoarsest runs FMPartition(H_m, NULL), optionally with
// multiple independent starts.
func partitionCoarsest(h *hypergraph.Hypergraph, cfg Config, rng *rand.Rand) (*hypergraph.Partition, fm.Result, error) {
	var best *hypergraph.Partition
	var bestRes fm.Result
	for s := 0; s < cfg.CoarsestStarts; s++ {
		p, r, err := fm.Partition(h, nil, cfg.Refine, rng)
		if err != nil {
			return nil, fm.Result{}, err
		}
		if best == nil || r.Cut < bestRes.Cut {
			best, bestRes = p, r
		}
		if r.Interrupted {
			bestRes.Interrupted = true
			break
		}
	}
	return best, bestRes, nil
}

// Hierarchy exposes the coarsening phase on its own: it returns the
// sequence of hypergraphs H_0..H_m and the clusterings between them.
// Useful for inspecting coarsening behaviour (examples, tests,
// experiments on hierarchy depth).
func Hierarchy(h *hypergraph.Hypergraph, cfg Config, rng *rand.Rand) ([]*hypergraph.Hypergraph, []*hypergraph.Clustering, error) {
	cfg, err := cfg.Normalize()
	if err != nil {
		return nil, nil, err
	}
	ws := &pipelineWS{}
	defer ws.startPool(cfg.IntraParallelism)()
	//mllint:ignore ctx-thread Hierarchy is a non-cancellable inspection helper; coarsening alone is cheap
	levels, _, err := buildHierarchy(context.Background(), h, cfg, rng, ws)
	if err != nil {
		return nil, nil, err
	}
	hs := make([]*hypergraph.Hypergraph, len(levels))
	cs := make([]*hypergraph.Clustering, 0, len(levels)-1)
	for i, l := range levels {
		hs[i] = l.h
		if l.c != nil {
			cs = append(cs, l.c)
		}
	}
	return hs, cs, nil
}
