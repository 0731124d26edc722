package core

import (
	"context"
	"fmt"
	"math/rand"

	"mlpart/internal/audit"
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
	// StallFraction as in Config. Default coarsen.DefaultStallFraction.
	StallFraction float64
	// Refine configures the Sanchis-style multi-way engine used at
	// every level. Refine.K defaults to 4 (quadrisection).
	Refine kway.Config
	// CoarsestStarts as in Config. Default 1.
	CoarsestStarts int
	// MaxLevels as in Config. Default 64.
	MaxLevels int
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
	lc, err := c.levels().normalize(100)
	if err != nil {
		return c, err
	}
	c.Threshold, c.Ratio, c.StallFraction, c.CoarsestStarts, c.MaxLevels = lc.threshold, lc.ratio, lc.stall, lc.starts, lc.maxLevels
	if (c.Fixed == nil) != (c.Preassign == nil) {
		return c, fmt.Errorf("core: Fixed and Preassign must be set together")
	}
	// kway.Config.Fixed is managed per level internally.
	if c.Refine.Fixed != nil {
		return c, fmt.Errorf("core: set QuadConfig.Fixed, not Refine.Fixed")
	}
	if c.Refine, err = c.Refine.Normalize(); err != nil {
		return c, err
	}
	return c, nil
}

// levels returns the level-driver parameters of c.
func (c QuadConfig) levels() levelConfig {
	return levelConfig{threshold: c.Threshold, ratio: c.Ratio, stall: c.StallFraction, starts: c.CoarsestStarts, maxLevels: c.MaxLevels, audit: c.Audit, inject: c.Inject, tel: c.Telemetry}
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
	ctx = orBackground(ctx)
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
	// The Scratch's bundle (a supervisor worker's), or a fresh one for
	// a call given none.
	ws := cfg.Scratch.attemptWS()
	top := level{h: h, fixed: cfg.Fixed, pre: cfg.Preassign}
	p, run, err := runLevels(ctx, top, cfg.levels(), newKwayLevels(ctx, cfg, ws, h), rng, ws)
	res := QuadResult{Levels: run.levels(), CoarsestCells: run.cells[len(run.cells)-1], LevelCells: run.cells, Interrupted: run.interrupted}
	if finished(p, err) {
		res.CutNets = p.Cut(h)
		res.SumDegrees = p.SumOfDegrees(h)
	}
	return p, res, err
}

// kwayLevels is the level driver's k-way refiner: the Sanchis-style
// multi-way engine (package kway) from random starts at the coarsest
// level and as refinement at every other, with each level's fixed
// cells locked.
type kwayLevels struct{ cfg kway.Config }

// newKwayLevels threads the attempt's context, fault injector,
// telemetry and workspace into cfg.Refine, and reserves the k-way
// workspace once for the finest level h.
func newKwayLevels(ctx context.Context, cfg QuadConfig, ws *pipelineWS, h *hypergraph.Hypergraph) kwayLevels {
	r := cfg.Refine
	r.Stop = mergeStop(r.Stop, ctx)
	r.Inject = cfg.Inject
	r.Telemetry = cfg.Telemetry
	r.WS = &ws.kway
	ws.kway.Reserve(r, h.NumCells(), h.NumNets())
	return kwayLevels{cfg: r}
}

func (e kwayLevels) k() int                         { return e.cfg.K }
func (e kwayLevels) tolerance() float64             { return e.cfg.Tolerance }
func (e kwayLevels) interrupted(r kway.Result) bool { return r.Interrupted }

func (e kwayLevels) cost(r kway.Result) int {
	if e.cfg.Objective == kway.NetCut {
		return r.CutNets
	}
	return r.SumDegrees
}

// start partitions from a random balanced start; with fixed cells the
// start is seeded with their pre-assignments.
func (e kwayLevels) start(l *level, rng *rand.Rand) (*hypergraph.Partition, kway.Result, error) {
	if l.fixed == nil {
		return kway.Partition(l.h, nil, e.cfg, rng)
	}
	c := e.cfg
	c.Fixed = l.fixed
	return kway.Partition(l.h, l.randomStart(c.K, c.Tolerance, rng), c, rng)
}

func (e kwayLevels) refine(l *level, p *hypergraph.Partition, rng *rand.Rand) (kway.Result, error) {
	c := e.cfg
	c.Fixed = l.fixed
	return kway.Refine(l.h, p, c, rng)
}

func (e kwayLevels) degraded(*hypergraph.Hypergraph, *hypergraph.Partition) kway.Result {
	return kway.Result{}
}

// audit checks a k-way level solution: validity, expected K, (when
// no cells are fixed — pre-assignments can make the §III.B bound
// unsatisfiable) the balance bound, and, when the engine ran, its
// reported cut and sum of degrees against from-scratch recounts.
func (e kwayLevels) audit(l *level, p *hypergraph.Partition, r kway.Result, engineRan bool) error {
	chk := audit.NoChecks()
	chk.K = e.cfg.K
	if l.fixed == nil {
		bound := hypergraph.Balance(l.h, e.cfg.K, e.cfg.Tolerance)
		chk.Bound = &bound
	}
	if engineRan {
		chk.WeightedCut = r.CutNets
		chk.SumDegrees = r.SumDegrees
	}
	return audit.CheckPartition(l.h, p, chk)
}
