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
	"mlpart/internal/telemetry"
)

// level is one rung of the hierarchy: the hypergraph, the clustering
// that produced the next (coarser) hypergraph, and the per-level
// inputs that differ between the front-ends. Every per-level input is
// propagated through the clusterings by coarsenLevels.
type level struct {
	h *hypergraph.Hypergraph
	c *hypergraph.Clustering // nil at the coarsest level

	// fixed and pre are the pre-assigned cells (quadrisection pads,
	// §III.C) and their blocks; nil when no cell is fixed. Fixed cells
	// are excluded from matching, so they stay singleton clusters.
	fixed []bool
	pre   []int32
	// part is the V-cycle solution pushed up to this level; nil
	// outside V-cycles. Matching only merges cells of one block, so it
	// is exactly representable at every level, and the coarsest
	// level's part replaces the random starts.
	part *hypergraph.Partition
}

// movable counts the cells of l that matching may merge. Fixed cells
// never shrink away, so the coarsening threshold counts movable cells
// only; otherwise a terminal-heavy instance would coarsen its movable
// cells into a handful of giant clusters.
func (l *level) movable() int {
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

// coarser returns the level that clustering c of l induces as coarseH,
// carrying the fixed cells and the V-cycle solution up into slot s.
// Every entry handed out is rewritten here, so what s held for an
// earlier job does not show.
func (l *level) coarser(c *hypergraph.Clustering, coarseH *hypergraph.Hypergraph, s *levelSlot) level {
	next := level{h: coarseH}
	n := coarseH.NumCells()
	if l.fixed != nil {
		s.fixed, s.pre = hypergraph.Resize(s.fixed, n), hypergraph.Resize(s.pre, n)
		next.fixed, next.pre = s.fixed, s.pre
		clear(next.fixed)
		for i := range next.pre {
			next.pre[i] = -1
		}
		for v, fx := range l.fixed {
			if fx {
				k := c.CellToCluster[v]
				next.fixed[k] = true
				next.pre[k] = l.pre[v]
			}
		}
	}
	if l.part != nil {
		// Every cluster is block-pure, so any member's block is the
		// cluster's block. Clusters are non-empty, so the loop writes
		// every entry.
		s.part = hypergraph.Partition{Part: hypergraph.Resize(s.part.Part, n), K: l.part.K}
		next.part = &s.part
		for v, k := range c.CellToCluster {
			next.part.Part[k] = l.part.Part[v]
		}
	}
	return next
}

// levelConfig is what the level driver reads from Config or
// QuadConfig.
type levelConfig struct {
	threshold int
	ratio     float64
	starts    int
	maxLevels int
	merge     bool
	audit     bool
	inject    *faultinject.Injector
	tel       *telemetry.Collector
}

// normalize fills the defaults shared by Config and QuadConfig
// (T = defaultT, R = 1.0, one coarsest start, 64 levels) and validates
// them.
func (lc levelConfig) normalize(defaultT int) (levelConfig, error) {
	if lc.threshold == 0 {
		lc.threshold = defaultT
	}
	if lc.ratio == 0 {
		lc.ratio = 1.0
	}
	if lc.starts == 0 {
		lc.starts = 1
	}
	if lc.maxLevels == 0 {
		lc.maxLevels = 64
	}
	switch {
	case lc.threshold < 2:
		return lc, fmt.Errorf("core: threshold %d < 2", lc.threshold)
	case math.IsNaN(lc.ratio) || lc.ratio <= 0 || lc.ratio > 1:
		return lc, fmt.Errorf("core: matching ratio %v outside (0,1]", lc.ratio)
	case lc.starts < 1:
		return lc, fmt.Errorf("core: CoarsestStarts %d < 1", lc.starts)
	case lc.maxLevels < 1:
		return lc, fmt.Errorf("core: MaxLevels %d < 1", lc.maxLevels)
	}
	return lc, nil
}

// levelRefiner is the per-engine half of the level driver: fmLevels
// for k = 2, kwayLevels for k = 4. R is the engine's result type.
type levelRefiner[R any] interface {
	// k and tolerance give the block count and balance tolerance r.
	k() int
	tolerance() float64
	// start partitions l.h from a random start (seeded with l's
	// pre-assignments) and refines it; cost ranks the starts.
	start(l *level, rng *rand.Rand) (*hypergraph.Partition, R, error)
	cost(r R) int
	// refine improves p in place at level l.
	refine(l *level, p *hypergraph.Partition, rng *rand.Rand) (R, error)
	interrupted(r R) bool
	// degraded is the result recorded for a solution the engine did
	// not produce.
	degraded(h *hypergraph.Hypergraph, p *hypergraph.Partition) R
	// audit checks a level solution; engineRan says r describes p.
	audit(l *level, p *hypergraph.Partition, r R, engineRan bool) error
}

// levelRun reports what one pass of the level driver did.
type levelRun struct {
	// cells records |V_i| for i = 0..m, m the number of coarsening
	// levels used.
	cells       []int
	interrupted bool
}

// levels returns m.
func (r levelRun) levels() int { return len(r.cells) - 1 }

// runLevels is the ML algorithm of Fig. 2, shared by bipartition,
// quadrisection (§III.C) and V-cycles: coarsen top while it has more
// than T movable cells, partition the coarsest netlist (best of
// lc.starts random starts, or a refine of the V-cycle solution), then
// project, rebalance and refine at every level down to top.h. The
// engine results come back coarsest first, one per level the engine
// refined.
//
// Every stage runs under Guard. A recovered panic degrades the run
// instead of ending it: a coarsening panic keeps the hierarchy prefix,
// a coarsest panic keeps the best completed start (or a random one),
// and after a refinement panic the remaining levels are projected and
// rebalanced without engine passes. The first such panic is returned
// as a *PanicError with the feasible partition. Any other error, and a
// panic before a fine-level solution exists, returns a nil partition;
// a failed audit returns the partition of the level that failed.
func runLevels[R any](ctx context.Context, top level, lc levelConfig, eng levelRefiner[R], rng *rand.Rand, ws *pipelineWS) (*hypergraph.Partition, levelRun, []R, error) {
	tel := lc.tel
	levels, run, err := coarsenLevels(ctx, top, lc, rng, ws)
	var firstErr error
	// degrade keeps the first recovered panic and reports any other
	// error, which ends the run.
	degrade := func(gerr error) error {
		if _, ok := AsPanicError(gerr); !ok {
			return gerr
		}
		if firstErr == nil {
			firstErr = gerr
		}
		return nil
	}
	if err != nil {
		if err := degrade(err); err != nil {
			return nil, run, nil, err
		}
	}
	// rebalance restores the balance bound of l. Pinned levels are
	// left alone: pre-assignments can make the bound unsatisfiable.
	rebalance := func(l *level, p *hypergraph.Partition) {
		if l.fixed != nil {
			return
		}
		if b := hypergraph.Balance(l.h, eng.k(), eng.tolerance()); !p.IsBalanced(l.h, b) {
			timer := tel.StartTimer(telemetry.StageRebalance)
			moved := p.Rebalance(l.h, b, rng)
			timer.Stop()
			tel.RecordRebalance(moved)
		}
	}
	results := make([]R, 0, len(levels))

	// Partition the coarsest netlist.
	m := len(levels) - 1
	coarsest := &levels[m]
	var p *hypergraph.Partition
	var r R
	engineOK := true
	tel.SetLevel(m)
	timer := tel.StartTimer(telemetry.StageRefine)
	gerr := Guard("coarsest-partition", m, func() error {
		if coarsest.part != nil {
			p = coarsest.part
			var err error
			r, err = eng.refine(coarsest, p, rng)
			return err
		}
		for s := 0; s < lc.starts; s++ {
			sp, sr, err := eng.start(coarsest, rng)
			if err != nil {
				return err
			}
			if p == nil || eng.cost(sr) < eng.cost(r) {
				p, r = sp, sr
			}
			if eng.interrupted(sr) {
				run.interrupted = true
				break
			}
		}
		return nil
	})
	timer.Stop()
	if gerr != nil {
		if err := degrade(gerr); err != nil {
			return nil, run, results, err
		}
		engineOK = false
		if p == nil {
			p = coarsest.randomStart(eng.k(), eng.tolerance(), rng)
		}
		// A V-cycle refine that stopped mid-pass may leave p
		// unbalanced; completed starts and random ones are balanced.
		rebalance(coarsest, p)
		r = eng.degraded(coarsest.h, p)
	}
	if eng.interrupted(r) {
		run.interrupted = true
	}
	results = append(results, r)
	// The sweep below alternates two buffers pre-sized for the finest
	// level instead of allocating a partition per level; p escapes to
	// the caller, so the buffers are per-call locals, not workspace
	// members. p moves into one of them before any return: a V-cycle's
	// coarsest solution lives in the hierarchy store.
	var scratch *hypergraph.Partition
	if m > 0 {
		n := top.h.NumCells()
		scratch = &hypergraph.Partition{Part: make([]int32, 0, n), K: p.K}
		p = &hypergraph.Partition{Part: append(make([]int32, 0, n), p.Part...), K: p.K}
	}
	if lc.audit {
		if err := eng.audit(coarsest, p, r, engineOK); err != nil {
			return p, run, results, fmt.Errorf("core: level %d: %w", m, err)
		}
	}
	if m == 0 {
		return p, run, results, firstErr
	}

	// Project and refine down to top.h. After a recovered engine panic
	// or a synthetic cancellation the remaining levels are projected
	// and rebalanced without engine passes.
	cancelled := false
	fire := func(site faultinject.Site) faultinject.Action {
		if lc.inject == nil {
			return faultinject.ActNone
		}
		return lc.inject.Fire(site)
	}
	apply := func(act faultinject.Action, l *level) {
		switch act {
		case faultinject.ActCancel:
			// Synthetic cancellation: degrade exactly like a real one.
			cancelled = true
			run.interrupted = true
		case faultinject.ActCorrupt:
			// The solution stays valid; the rebalance and refinement
			// below absorb the damage, or the audit flags it.
			corrupt(p, l.fixed, eng.k(), rng)
		}
	}
	for i := m - 1; i >= 0; i-- {
		l := &levels[i]
		tel.SetLevel(i)
		ptimer := tel.StartTimer(telemetry.StageProject)
		gerr := Guard("project", i, func() error {
			act := fire(faultinject.SiteCoreProject)
			if err := hypergraph.ProjectInto(l.c, p, scratch); err != nil {
				return err
			}
			p, scratch = scratch, p
			apply(act, l)
			return nil
		})
		ptimer.Stop()
		if gerr != nil {
			// No fine-level solution exists yet, so the attempt is
			// lost; the supervisor's retry path handles it.
			return nil, run, results, gerr
		}
		if lc.inject != nil {
			// Only a panic can surface here; it drops the run to the
			// project-and-rebalance path, which keeps feasibility.
			if gerr := Guard("rebalance", i, func() error {
				apply(fire(faultinject.SiteCoreRebalance), l)
				return nil
			}); gerr != nil {
				_ = degrade(gerr)
				engineOK = false
			}
		}
		if l.fixed != nil {
			// Defensive re-pin: fixed cells are singleton clusters, so
			// projection preserves pre-assignments by construction.
			for v, fx := range l.fixed {
				if fx {
					p.Part[v] = l.pre[v]
				}
			}
		}
		// The projected solution may violate the balance bound of H_i
		// (A(v*) can decrease during uncoarsening, §III.B).
		rebalance(l, p)
		engineRan := false
		if engineOK && !cancelled {
			rtimer := tel.StartTimer(telemetry.StageRefine)
			gerr := Guard("refine", i, func() error {
				var err error
				r, err = eng.refine(l, p, rng)
				return err
			})
			rtimer.Stop()
			if gerr != nil {
				if err := degrade(gerr); err != nil {
					return nil, run, results, err
				}
				engineOK = false
				// A mid-pass panic leaves p valid but possibly
				// unbalanced.
				rebalance(l, p)
			} else {
				engineRan = true
				if eng.interrupted(r) {
					run.interrupted = true
				}
				results = append(results, r)
			}
		}
		if lc.audit {
			if !engineRan {
				r = eng.degraded(l.h, p)
			}
			if err := eng.audit(l, p, r, engineRan); err != nil {
				return p, run, results, fmt.Errorf("core: level %d: %w", i, err)
			}
		}
	}
	return p, run, results, firstErr
}

// coarsenLevels is the coarsening phase (Steps 1–5 of Fig. 2): Match,
// induce, optionally merge parallel nets, audit, record telemetry, and
// repeat on the coarser netlist while it has more than T movable
// cells. Cancellation stops coarsening early; a panic inside a step is
// returned as a *PanicError alongside the valid hierarchy prefix.
//
// Level i+1 is built into slot i of ws.levels: its clustering, its
// hypergraph and its fixed, pre and part arrays are the slot's, each
// rewritten whole. The levels are valid until the next coarsenLevels
// on ws.
func coarsenLevels(ctx context.Context, top level, lc levelConfig, rng *rand.Rand, ws *pipelineWS) ([]level, levelRun, error) {
	levels := []level{top}
	run := levelRun{cells: []int{top.h.NumCells()}}
	for cur := &levels[0]; cur.movable() > lc.threshold && len(levels) <= lc.maxLevels; cur = &levels[len(levels)-1] {
		if ctx.Err() != nil {
			run.interrupted = true
			break
		}
		i := len(levels) - 1
		slot := ws.levels.slot(i)
		c := &slot.c
		var coarseH *hypergraph.Hypergraph
		matchCfg := coarsen.Config{Ratio: lc.ratio, Exclude: cur.fixed, SameBlockOnly: cur.part, Stop: mergeStop(nil, ctx), Inject: lc.inject, Telemetry: lc.tel, WS: &ws.match}
		lc.tel.SetLevel(i)
		timer := lc.tel.StartTimer(telemetry.StageCoarsen)
		gerr := Guard("coarsen", i, func() error {
			if err := coarsen.MatchInto(cur.h, matchCfg, rng, c); err != nil {
				return err
			}
			var err error
			coarseH, err = hypergraph.InduceInto(cur.h, c, &ws.induce, &slot.h)
			if err == nil && lc.merge {
				coarseH, err = hypergraph.MergeParallelNets(coarseH)
			}
			return err
		})
		timer.Stop()
		if gerr != nil {
			return levels, run, gerr
		}
		if coarseH.NumCells() >= cur.h.NumCells() {
			// Match made no progress (e.g. a netless instance with
			// R ≈ 0); stop rather than loop forever.
			break
		}
		if lc.audit {
			err := audit.CheckClustering(cur.h, c, coarseH)
			if err == nil {
				err = audit.CheckHypergraph(coarseH)
			}
			if err != nil {
				return levels, run, fmt.Errorf("core: level %d: %w", i, err)
			}
		}
		lc.tel.RecordLevel(coarseH.NumCells(), coarseH.NumNets(), coarseH.NumPins(), coarseH.MaxCellArea())
		cur.c = c
		levels = append(levels, cur.coarser(c, coarseH, slot))
		run.cells = append(run.cells, coarseH.NumCells())
	}
	return levels, run, nil
}

// corrupt moves one random non-fixed cell to the next block, the
// fault injector's corrupt action: the partition stays valid (all
// blocks in range) but may go unbalanced; the per-level rebalance
// absorbs it, or the audit flags it. For k = 2 the move is a flip.
func corrupt(p *hypergraph.Partition, fixed []bool, k int, rng *rand.Rand) {
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

// randomStart builds a random balanced k-way partition of l.h with
// tolerance r that honors l's pre-assignments: fixed cells take their
// block, free cells fill greedily in random order.
func (l *level) randomStart(k int, r float64, rng *rand.Rand) *hypergraph.Partition {
	if l.fixed == nil {
		return hypergraph.RandomPartition(l.h, k, r, rng)
	}
	h := l.h
	p := hypergraph.NewPartition(h.NumCells(), k)
	areas := make([]int64, k)
	for v := 0; v < h.NumCells(); v++ {
		if l.fixed[v] {
			p.Part[v] = l.pre[v]
			areas[l.pre[v]] += h.Area(v)
		}
	}
	perm := rng.Perm(h.NumCells())
	for _, v := range perm {
		if l.fixed[v] {
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
