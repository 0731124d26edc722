package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"mlpart/internal/audit"
	"mlpart/internal/coarsen"
	"mlpart/internal/faultinject"
	"mlpart/internal/hypergraph"
	"mlpart/internal/kway"
	"mlpart/internal/telemetry"
)

// QuadConfig parameterizes multilevel k-way partitioning (§III.C,
// §IV.D). The paper's quadrisection experiments use ML_F-style
// refinement with R = 1.0, T = 100 and the sum-of-degrees gain.
type QuadConfig struct {
	// Threshold is the coarsening threshold T. Default 100.
	Threshold int
	// Ratio is the matching ratio R. Default 1.0.
	Ratio float64
	// Refine configures the Sanchis-style multi-way engine used at
	// every level. Refine.K defaults to 4 (quadrisection).
	Refine kway.Config
	// CoarsestStarts as in Config. Default 1.
	CoarsestStarts int
	// MaxLevels as in Config. Default 64.
	MaxLevels int
	// IntraParallelism sizes the intra-attempt worker pool used for
	// parallel match scoring and induce-CSR assembly during
	// coarsening, as in Config.IntraParallelism (0 = serial). The
	// k-way engine has no parallel path; results are bit-identical
	// for every value.
	IntraParallelism int
	// Fixed marks pre-assigned cells of H_0 (e.g. I/O pads, §III.C);
	// they keep the block given in Preassign and never move. Optional.
	Fixed []bool
	// Preassign gives the block of each fixed cell (only entries
	// with Fixed[v] true are read). Required iff Fixed is non-nil.
	Preassign []int32
	// Audit enables per-level invariant checks, as in Config.Audit.
	Audit bool
	// Inject optionally arms deterministic fault injection for this
	// attempt (sites coarsen.match, kway.refine, core.project,
	// core.rebalance), as in Config.Inject.
	Inject *faultinject.Injector
	// Telemetry optionally collects per-level coarsening stats,
	// per-pass refinement stats, rebalance counters and stage
	// timings for this attempt, as in Config.Telemetry.
	Telemetry *telemetry.Collector
	// Scratch, when non-nil, makes the attempt reuse a caller-owned
	// workspace bundle, as in Config.Scratch (single-goroutine).
	Scratch *Scratch
}

// Normalize fills defaults and validates.
func (c QuadConfig) Normalize() (QuadConfig, error) {
	if c.Threshold == 0 {
		c.Threshold = 100
	}
	if c.Threshold < 2 {
		return c, fmt.Errorf("core: quad threshold %d < 2", c.Threshold)
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
	if (c.Fixed == nil) != (c.Preassign == nil) {
		return c, fmt.Errorf("core: Fixed and Preassign must be set together")
	}
	var err error
	// kway.Config.Fixed is managed per level internally.
	if c.Refine.Fixed != nil {
		return c, fmt.Errorf("core: set QuadConfig.Fixed, not Refine.Fixed")
	}
	if c.Refine, err = c.Refine.Normalize(); err != nil {
		return c, err
	}
	return c, nil
}

// QuadResult reports what a multilevel k-way run did.
type QuadResult struct {
	// CutNets is the number of nets spanning >1 block of the final
	// solution — the Table IX metric.
	CutNets int
	// SumDegrees is Σ_e (span−1) of the final solution.
	SumDegrees int
	// Levels, CoarsestCells, LevelCells as in Result.
	Levels        int
	CoarsestCells int
	LevelCells    []int
	// Interrupted reports that cancellation cut the run short; the
	// returned partition is still feasible.
	Interrupted bool
}

// Quadrisect runs the multilevel k-way algorithm: Match-based
// coarsening (fixed cells are never matched together with free
// cells across blocks — they simply coarsen like any cell, but their
// pre-assignment is honored by seeding and locking them at every
// level), k-way partitioning of the coarsest netlist, then projection
// with multi-way FM refinement per level.
func Quadrisect(h *hypergraph.Hypergraph, cfg QuadConfig, rng *rand.Rand) (*hypergraph.Partition, QuadResult, error) {
	//mllint:ignore ctx-thread non-Ctx compatibility wrapper: rooting a fresh context is its documented contract
	return QuadrisectCtx(context.Background(), h, cfg, rng)
}

// QuadrisectCtx is Quadrisect with cooperative cancellation and panic
// recovery, under the same contract as BipartitionCtx: once the
// context is done, at most one refinement pass of extra work happens,
// the remaining levels are projected and rebalanced without engine
// passes, and the returned partition is feasible with
// QuadResult.Interrupted set. Internal panics are recovered at stage
// boundaries and returned as a *PanicError with the best feasible
// partition.
func QuadrisectCtx(ctx context.Context, h *hypergraph.Hypergraph, cfg QuadConfig, rng *rand.Rand) (*hypergraph.Partition, QuadResult, error) {
	cfg, err := cfg.Normalize()
	if err != nil {
		return nil, QuadResult{}, err
	}
	if ctx == nil {
		ctx = context.Background() //mllint:ignore ctx-thread normalizing a nil ctx from the caller; there is no ambient deadline to discard
	}
	cfg.Refine.Stop = mergeStop(cfg.Refine.Stop, ctx)
	cfg.Refine.Inject = cfg.Inject
	cfg.Refine.Telemetry = cfg.Telemetry
	if cfg.Fixed != nil {
		if len(cfg.Fixed) != h.NumCells() || len(cfg.Preassign) != h.NumCells() {
			return nil, QuadResult{}, fmt.Errorf("core: Fixed/Preassign length mismatch with %d cells", h.NumCells())
		}
		for v, fx := range cfg.Fixed {
			if fx && (cfg.Preassign[v] < 0 || int(cfg.Preassign[v]) >= cfg.Refine.K) {
				return nil, QuadResult{}, fmt.Errorf("core: preassigned block %d of cell %d out of range", cfg.Preassign[v], v)
			}
		}
	}

	res := QuadResult{}
	// One workspace bundle per attempt (or the caller's shared Scratch
	// for batched runs), its k-way arrays sized once for the finest
	// level; the intra-parallelism pool accelerates coarsening only.
	ws := cfg.Scratch.attemptWS()
	defer ws.startPool(cfg.IntraParallelism)()
	cfg.Refine.WS = &ws.kway
	ws.kway.Reserve(cfg.Refine, h.NumCells(), h.NumNets())
	cfg.Telemetry.RecordIntraWorkers(cfg.IntraParallelism)

	// Coarsening phase; track fixed flags and pre-assignments
	// through the hierarchy (a coarse cell is fixed to block b if any
	// member is; conflicting pre-assignments pin the first seen).
	type qlevel struct {
		h     *hypergraph.Hypergraph
		c     *hypergraph.Clustering
		fixed []bool
		pre   []int32
	}
	levels := []qlevel{{h: h, fixed: cfg.Fixed, pre: cfg.Preassign}}
	res.LevelCells = append(res.LevelCells, h.NumCells())
	// Fixed cells are never matched, so they can't shrink away; the
	// coarsening threshold must therefore count movable cells only,
	// or a terminal-heavy instance would coarsen its movable cells
	// into a handful of giant clusters.
	movable := func(l *qlevel) int {
		if l.fixed == nil {
			return l.h.NumCells()
		}
		n := 0
		for _, fx := range l.fixed {
			if !fx {
				n++
			}
		}
		return n
	}
	var firstErr *PanicError
	cur := &levels[0]
	for movable(cur) > cfg.Threshold && len(levels) <= cfg.MaxLevels {
		if ctx.Err() != nil {
			res.Interrupted = true
			break
		}
		// Fixed cells are excluded from matching (always singleton
		// clusters), so two pads pre-assigned to different blocks can
		// never be merged.
		matchCfg := coarsen.Config{Ratio: cfg.Ratio, Exclude: cur.fixed, Stop: mergeStop(nil, ctx), Inject: cfg.Inject, Telemetry: cfg.Telemetry, WS: &ws.match, Par: ws.pool}
		var coarseH *hypergraph.Hypergraph
		var c *hypergraph.Clustering
		cfg.Telemetry.SetLevel(len(levels) - 1)
		timer := cfg.Telemetry.StartTimer(telemetry.StageCoarsen)
		gerr := Guard("coarsen", len(levels)-1, func() error {
			var err error
			c, err = coarsen.Match(cur.h, matchCfg, rng)
			if err != nil {
				return err
			}
			coarseH, err = hypergraph.InduceWSPar(cur.h, c, &ws.induce, ws.pool)
			return err
		})
		timer.Stop()
		if gerr != nil {
			pe, ok := AsPanicError(gerr)
			if !ok {
				return nil, QuadResult{}, gerr
			}
			// Keep the valid hierarchy prefix and continue the run.
			firstErr = pe
			break
		}
		if coarseH.NumCells() >= cur.h.NumCells() {
			break
		}
		if cfg.Audit {
			if err := audit.CheckClustering(cur.h, c, coarseH); err != nil {
				return nil, res, fmt.Errorf("core: level %d: %w", len(levels)-1, err)
			}
			if err := audit.CheckHypergraph(coarseH); err != nil {
				return nil, res, fmt.Errorf("core: level %d: %w", len(levels)-1, err)
			}
		}
		cfg.Telemetry.RecordLevel(coarseH.NumCells(), coarseH.NumNets(), coarseH.NumPins(), coarseH.MaxCellArea())
		cur.c = c
		next := qlevel{h: coarseH}
		if cur.fixed != nil {
			next.fixed = make([]bool, coarseH.NumCells())
			next.pre = make([]int32, coarseH.NumCells())
			for i := range next.pre {
				next.pre[i] = -1
			}
			for v, fx := range cur.fixed {
				if !fx {
					continue
				}
				k := c.CellToCluster[v]
				next.fixed[k] = true
				next.pre[k] = cur.pre[v]
			}
		}
		levels = append(levels, next)
		res.LevelCells = append(res.LevelCells, coarseH.NumCells())
		cur = &levels[len(levels)-1]
	}
	res.Levels = len(levels) - 1
	res.CoarsestCells = cur.h.NumCells()
	cfg.Telemetry.RecordParRegions(telemetry.StageCoarsen, ws.pool.Regions())

	// Partition the coarsest netlist.
	refCfg := cfg.Refine
	top := levels[len(levels)-1]
	engineOK := true
	var best *hypergraph.Partition
	bestCost := 0
	cfg.Telemetry.SetLevel(len(levels) - 1)
	rtimer := cfg.Telemetry.StartTimer(telemetry.StageRefine)
	gerr := Guard("coarsest-partition", len(levels)-1, func() error {
		for s := 0; s < cfg.CoarsestStarts; s++ {
			var p *hypergraph.Partition
			var r kway.Result
			var err error
			if top.fixed != nil {
				init := seededRandomPartition(top.h, refCfg.K, top.fixed, top.pre, rng)
				c2 := refCfg
				c2.Fixed = top.fixed
				p, r, err = kway.Partition(top.h, init, c2, rng)
			} else {
				p, r, err = kway.Partition(top.h, nil, refCfg, rng)
			}
			if err != nil {
				return err
			}
			cost := r.SumDegrees
			if refCfg.Objective == kway.NetCut {
				cost = r.CutNets
			}
			if best == nil || cost < bestCost {
				best, bestCost = p, cost
			}
			if r.Interrupted {
				res.Interrupted = true
				break
			}
		}
		return nil
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
	}
	if best == nil {
		// Degraded fallback after a panic before any start finished.
		if top.fixed != nil {
			best = seededRandomPartition(top.h, refCfg.K, top.fixed, top.pre, rng)
		} else {
			best = hypergraph.RandomPartition(top.h, refCfg.K, refCfg.Tolerance, rng)
		}
	}
	p := best
	if cfg.Audit {
		if err := auditQuadLevel(top.h, p, refCfg, top.fixed != nil); err != nil {
			return p, res, fmt.Errorf("core: level %d: %w", len(levels)-1, err)
		}
	}

	// Uncoarsening with per-level refinement. After a recovered engine
	// panic (or a synthetic cancellation) the remaining levels are
	// projected and rebalanced without engine passes.
	cancelled := false
	// Alternate two pre-sized buffers down the hierarchy instead of
	// allocating a partition per level; p escapes to the caller, so the
	// buffers are per-call locals, not workspace members.
	var scratch *hypergraph.Partition
	if len(levels) > 1 {
		var buf *hypergraph.Partition
		buf, scratch = projectionBuffers(h.NumCells(), p.K)
		copyInto(buf, p)
		p = buf
	}
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
			// Unrecoverable for this attempt: no fine-level solution
			// exists yet. The supervisor's retry path handles it.
			return nil, res, gerr
		}
		lv := levels[i]
		switch act {
		case faultinject.ActCancel:
			cancelled = true
			res.Interrupted = true
		case faultinject.ActCorrupt:
			corruptKway(p, lv.fixed, refCfg.K, rng)
		}
		if cfg.Inject != nil {
			gerr := Guard("rebalance", i, func() error {
				switch cfg.Inject.Fire(faultinject.SiteCoreRebalance) {
				case faultinject.ActCancel:
					cancelled = true
					res.Interrupted = true
				case faultinject.ActCorrupt:
					corruptKway(p, lv.fixed, refCfg.K, rng)
				}
				return nil
			})
			if gerr != nil {
				// Only a panic surfaces here; drop to the degraded
				// project-and-rebalance path below.
				pe, _ := AsPanicError(gerr)
				if firstErr == nil {
					firstErr = pe
				}
				engineOK = false
			}
		}
		c2 := refCfg
		c2.Fixed = lv.fixed
		if lv.fixed != nil {
			// Defensive re-pin: projection preserves pre-assignments
			// by construction (fixed cells are singleton clusters),
			// but enforce the invariant explicitly.
			for v, fx := range lv.fixed {
				if fx {
					p.Part[v] = lv.pre[v]
				}
			}
		}
		if lv.fixed == nil {
			bound := hypergraph.Balance(lv.h, refCfg.K, refCfg.Tolerance)
			if !p.IsBalanced(lv.h, bound) {
				btimer := cfg.Telemetry.StartTimer(telemetry.StageRebalance)
				moved := p.Rebalance(lv.h, bound, rng)
				btimer.Stop()
				cfg.Telemetry.RecordRebalance(moved)
			}
		}
		if engineOK && !cancelled {
			rtimer := cfg.Telemetry.StartTimer(telemetry.StageRefine)
			gerr := Guard("refine", i, func() error {
				r, err := kway.Refine(lv.h, p, c2, rng)
				if r.Interrupted {
					res.Interrupted = true
				}
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
				// kway.Refine mutates p in place; a mid-pass panic can
				// leave it unbalanced, so restore the bound before
				// projecting further (fixed cells keep their pins).
				if lv.fixed == nil {
					bound := hypergraph.Balance(lv.h, refCfg.K, refCfg.Tolerance)
					if !p.IsBalanced(lv.h, bound) {
						moved := p.Rebalance(lv.h, bound, rng)
						cfg.Telemetry.RecordRebalance(moved)
					}
				}
			}
		}
		if cfg.Audit {
			if err := auditQuadLevel(lv.h, p, refCfg, lv.fixed != nil); err != nil {
				return p, res, fmt.Errorf("core: level %d: %w", i, err)
			}
		}
	}
	res.CutNets = p.Cut(h)
	res.SumDegrees = p.SumOfDegrees(h)
	if firstErr != nil {
		return p, res, firstErr
	}
	return p, res, nil
}

// auditQuadLevel checks a k-way level solution: validity, expected K,
// and (when no cells are fixed — pre-assignments can make the §III.B
// bound unsatisfiable) the balance bound.
func auditQuadLevel(h *hypergraph.Hypergraph, p *hypergraph.Partition, refCfg kway.Config, hasFixed bool) error {
	chk := audit.NoChecks()
	chk.K = refCfg.K
	if !hasFixed {
		bound := hypergraph.Balance(h, refCfg.K, refCfg.Tolerance)
		chk.Bound = &bound
	}
	return audit.CheckPartition(h, p, chk)
}

// corruptKway moves one random non-fixed cell to the next block: the
// partition stays valid (all blocks in range) but may go unbalanced;
// the per-level rebalance absorbs it, or the audit flags it.
func corruptKway(p *hypergraph.Partition, fixed []bool, k int, rng *rand.Rand) {
	n := len(p.Part)
	if n == 0 {
		return
	}
	v := rng.Intn(n)
	for tries := 0; tries < n; tries++ {
		if fixed == nil || !fixed[v] {
			p.Part[v] = (p.Part[v] + 1) % int32(k)
			return
		}
		v = (v + 1) % n
	}
}

// seededRandomPartition builds a random balanced k-way partition that
// honors pre-assignments: fixed cells take their block, free cells
// fill greedily in random order.
func seededRandomPartition(h *hypergraph.Hypergraph, k int, fixed []bool, pre []int32, rng *rand.Rand) *hypergraph.Partition {
	p := hypergraph.NewPartition(h.NumCells(), k)
	areas := make([]int64, k)
	for v := 0; v < h.NumCells(); v++ {
		if fixed[v] {
			p.Part[v] = pre[v]
			areas[pre[v]] += h.Area(v)
		}
	}
	perm := rng.Perm(h.NumCells())
	for _, v := range perm {
		if fixed[v] {
			continue
		}
		bestB := 0
		for b := 1; b < k; b++ {
			if areas[b] < areas[bestB] {
				bestB = b
			}
		}
		p.Part[v] = int32(bestB)
		areas[bestB] += h.Area(v)
	}
	return p
}
