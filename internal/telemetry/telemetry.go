// Package telemetry is the structured-statistics layer of the
// multilevel pipeline: per-level coarsening stats, per-pass FM/CLIP
// and k-way refinement stats, rebalance counters, and wall-clock
// timings per stage, assembled into a machine-readable Report.
//
// Production overhead: a nil *Collector is the off state. Every
// instrumented site compiles to a single pointer check (the methods
// are nil-receiver no-ops), mirroring internal/faultinject — a
// disabled collector costs nothing measurable.
//
// Determinism contract: a Collector is owned by one goroutine. The
// multi-start supervisor gives each start its own child collector
// (NewChild), takes the child's StartStats (TakeStart) as soon as the
// start ends, and hands the parent every start's StartStats in start
// order in one call (AttachStarts) after the worker pool drains. A
// start skipped after a cancel gets a skeleton entry and no child. So
// an armed Report is bit-identical across Parallelism values — except
// the *NS timing fields, which are wall-clock measurements;
// StripTimings zeroes them for byte-for-byte comparison.
package telemetry

import (
	"encoding/json"
	"io"
	"time"
)

// SchemaVersion identifies the Report JSON layout; bump on any
// incompatible field change.
const SchemaVersion = "mlpart-stats/1"

// Stage names one timed phase of the pipeline.
type Stage int

const (
	// StageCoarsen covers Match + Induce per level.
	StageCoarsen Stage = iota
	// StageRefine covers the coarsest partitioning and every
	// per-level engine refinement.
	StageRefine
	// StageProject covers solution projection between levels.
	StageProject
	// StageRebalance covers explicit rebalancing (initial-solution
	// and degraded-path rebalances).
	StageRebalance
)

// LevelStat describes one coarsening level: the coarse hypergraph
// produced by the level's Match + Induce step.
type LevelStat struct {
	// Level is the 0-based coarsening step (level 0 clusters H_0).
	Level int `json:"level"`
	// Cells, Nets, Pins describe the induced coarse hypergraph.
	Cells int `json:"cells"`
	Nets  int `json:"nets"`
	Pins  int `json:"pins"`
	// MatchedPairs is how many two-cell clusters Match formed;
	// Singletons is how many cells stayed unmatched.
	MatchedPairs int `json:"matched_pairs"`
	Singletons   int `json:"singletons"`
	// LargestClusterArea is the max cell area of the coarse
	// hypergraph — the A(v*) term of the §III.B balance bound.
	LargestClusterArea int64 `json:"largest_cluster_area"`
}

// PassStat describes one refinement pass of an engine at one level.
type PassStat struct {
	// Level is the hierarchy level being refined (0 = H_0).
	Level int `json:"level"`
	// Engine is the bucket engine ("FM", "CLIP", "PROP", "CL-PR", or
	// "kway-FM"/"kway-CLIP" for the multi-way refiner).
	Engine string `json:"engine"`
	// Pass is the 0-based pass index within the engine invocation.
	Pass int `json:"pass"`
	// CutBefore/CutAfter are the engine's incrementally maintained
	// objective before and after the pass (active cut for FM/CLIP,
	// the configured objective for k-way); -1 when the engine keeps
	// no incremental counter (PROP).
	CutBefore int `json:"cut_before"`
	CutAfter  int `json:"cut_after"`
	// MovesTried counts all moves attempted in the pass; MovesKept
	// counts those surviving the rollback to the best prefix;
	// RolledBack is the difference (the rollback depth).
	MovesTried int `json:"moves_tried"`
	MovesKept  int `json:"moves_kept"`
	RolledBack int `json:"rolled_back"`
}

// Why coarsening stopped (StartStats.CoarsenStop).
const (
	// CoarsenStopThreshold: the coarsest level has at most T movable
	// cells, the paper's Fig. 2 stop.
	CoarsenStopThreshold = "threshold"
	// CoarsenStopStalled: Match's stall rule found the next level would
	// keep more than the stall fraction of the cells, and dropped it.
	CoarsenStopStalled = "stalled"
	// CoarsenStopNoProgress: Match found no pair to merge.
	CoarsenStopNoProgress = "no-progress"
	// CoarsenStopMaxLevels: the hierarchy reached its depth cap.
	CoarsenStopMaxLevels = "max-levels"
	// CoarsenStopCancelled: cancellation, real or injected, ended
	// coarsening.
	CoarsenStopCancelled = "cancelled"
)

// CoarsenStops lists every CoarsenStop value.
var CoarsenStops = []string{CoarsenStopThreshold, CoarsenStopStalled, CoarsenStopNoProgress, CoarsenStopMaxLevels, CoarsenStopCancelled}

// StageTimings is the wall-clock profile of one start. All fields
// describe how the run executed, not what it computed — they vary
// from run to run while the algorithmic payload stays bit-identical —
// so StripTimings zeroes the whole struct for byte-for-byte report
// comparison.
type StageTimings struct {
	CoarsenNS   int64 `json:"coarsen_ns"`
	RefineNS    int64 `json:"refine_ns"`
	ProjectNS   int64 `json:"project_ns"`
	RebalanceNS int64 `json:"rebalance_ns"`
	// TotalNS is the supervised start's end-to-end duration; 0 for a
	// start skipped after a cancel, which never ran.
	TotalNS int64 `json:"total_ns"`
	// CoarsenParRegions and RefineParRegions always read 0: the
	// pipeline has no parallel regions.
	//
	// Deprecated: the next benchmark change removes both fields.
	CoarsenParRegions int64 `json:"coarsen_par_regions"`
	RefineParRegions  int64 `json:"refine_par_regions"`
}

// StartStats aggregates one supervised start.
type StartStats struct {
	// Start is the 0-based start index.
	Start int `json:"start"`
	// Outcome is the supervisor's taxonomy for the start (ok /
	// recovered / cancelled / failed).
	Outcome string `json:"outcome"`
	// Cost is the kept solution's objective; -1 when the start
	// produced no solution.
	Cost int `json:"cost"`
	// Coarsening holds one entry per coarsening level, in level
	// order.
	Coarsening []LevelStat `json:"coarsening,omitempty"`
	// CoarsenStop says why coarsening ended: one of CoarsenStops, or
	// empty when the start never finished coarsening (an error or a
	// panic ended it, or the start was skipped).
	CoarsenStop string `json:"coarsen_stop,omitempty"`
	// Passes holds one entry per refinement pass, in execution
	// order (coarsest level first).
	Passes []PassStat `json:"passes,omitempty"`
	// Rebalances counts explicit rebalance invocations;
	// RebalanceMoved sums the cells they moved.
	Rebalances     int `json:"rebalances"`
	RebalanceMoved int `json:"rebalance_moved"`
	// Timings is the start's wall-clock profile.
	Timings StageTimings `json:"timings"`
}

// Report is the machine-readable run report (the -stats-json
// payload). Everything except the StageTimings fields is a pure
// function of (input, options, seed).
type Report struct {
	// Schema is SchemaVersion.
	Schema string `json:"schema"`
	// K is the block count of the run (2 or 4).
	K int `json:"k"`
	// Seed is the base seed.
	Seed int64 `json:"seed"`
	// Starts/BestStart/Cut/SumDegrees/Levels mirror the public Info.
	Starts     int `json:"starts"`
	BestStart  int `json:"best_start"`
	Cut        int `json:"cut"`
	SumDegrees int `json:"sum_degrees"`
	Levels     int `json:"levels"`
	// PerStart holds the per-start aggregates in start order.
	PerStart []StartStats `json:"per_start"`
}

// StripTimings zeroes every wall-clock field so two reports from the
// same (input, options, seed) compare byte-identical regardless of
// Parallelism or machine load.
func (r *Report) StripTimings() {
	for i := range r.PerStart {
		r.PerStart[i].Timings = StageTimings{}
	}
}

// WriteJSON writes the report as indented JSON with a trailing
// newline — the canonical -stats-json encoding.
func (r *Report) WriteJSON(w io.Writer) error { return writeJSON(w, r) }

// writeJSON writes v as indented JSON with a trailing newline, the
// encoding every report type shares.
func writeJSON(w io.Writer, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// Collector accumulates telemetry for one run. A nil *Collector is
// the disabled state: every method is a nil-receiver no-op, so
// instrumented sites cost one pointer check.
//
// A Collector is not safe for concurrent use; the supervisor derives
// one child per start (NewChild), takes each child's statistics on
// the worker that ran the start, and attaches them to the parent
// after the pool drains.
type Collector struct {
	level int

	// pending Match counters, folded into the next RecordLevel.
	pendingPairs      int
	pendingSingletons int

	cur    StartStats
	report Report
}

// New returns an armed collector. Pipeline packages never call New:
// collectors arrive via configuration (Options.Telemetry and the
// internal Config fields) or are derived with NewChild — the
// telemetry-thread lint check enforces this.
func New() *Collector { return &Collector{} }

// Enabled reports whether the collector is armed.
func (c *Collector) Enabled() bool { return c != nil }

// NewChild derives a fresh per-start collector; nil-safe (a
// disabled parent derives a disabled child).
func (c *Collector) NewChild() *Collector {
	if c == nil {
		return nil
	}
	return New()
}

// SetLevel sets the hierarchy level attributed to subsequent
// RecordLevel/RecordPass calls.
func (c *Collector) SetLevel(level int) {
	if c == nil {
		return
	}
	c.level = level
}

// RecordMatch records the pairing outcome of one Match invocation;
// the counts are folded into the next RecordLevel entry.
func (c *Collector) RecordMatch(pairs, singletons int) {
	if c == nil {
		return
	}
	c.pendingPairs = pairs
	c.pendingSingletons = singletons
}

// RecordLevel appends the coarse-hypergraph shape of the current
// level, consuming any pending RecordMatch counts.
func (c *Collector) RecordLevel(cells, nets, pins int, largestClusterArea int64) {
	if c == nil {
		return
	}
	c.cur.Coarsening = append(c.cur.Coarsening, LevelStat{
		Level:              c.level,
		Cells:              cells,
		Nets:               nets,
		Pins:               pins,
		MatchedPairs:       c.pendingPairs,
		Singletons:         c.pendingSingletons,
		LargestClusterArea: largestClusterArea,
	})
	c.pendingPairs, c.pendingSingletons = 0, 0
}

// RecordCoarsenStop records why coarsening ended (one of
// CoarsenStops); a later coarsening of the same attempt, such as the
// next V-cycle, overwrites it.
func (c *Collector) RecordCoarsenStop(reason string) {
	if c == nil {
		return
	}
	c.cur.CoarsenStop = reason
}

// RecordPass appends one refinement-pass entry at the current level.
// tried counts all moves attempted, kept those surviving rollback.
func (c *Collector) RecordPass(engine string, pass, cutBefore, cutAfter, tried, kept int) {
	if c == nil {
		return
	}
	c.cur.Passes = append(c.cur.Passes, PassStat{
		Level:      c.level,
		Engine:     engine,
		Pass:       pass,
		CutBefore:  cutBefore,
		CutAfter:   cutAfter,
		MovesTried: tried,
		MovesKept:  kept,
		RolledBack: tried - kept,
	})
}

// RecordRebalance counts one explicit rebalance that moved the given
// number of cells.
func (c *Collector) RecordRebalance(moved int) {
	if c == nil {
		return
	}
	c.cur.Rebalances++
	c.cur.RebalanceMoved += moved
}

// Timer accumulates one stage's elapsed wall-clock time on Stop. The
// zero Timer (from a nil collector) is a no-op.
type Timer struct {
	c     *Collector
	stage Stage
	t0    time.Time
}

// StartTimer begins timing a stage; pair with Stop.
func (c *Collector) StartTimer(stage Stage) Timer {
	if c == nil {
		return Timer{}
	}
	return Timer{c: c, stage: stage, t0: time.Now()}
}

// Stop adds the elapsed time to the timer's stage.
func (t Timer) Stop() {
	if t.c == nil {
		return
	}
	t.c.addNS(t.stage, time.Since(t.t0).Nanoseconds())
}

func (c *Collector) addNS(stage Stage, ns int64) {
	switch stage {
	case StageCoarsen:
		c.cur.Timings.CoarsenNS += ns
	case StageRefine:
		c.cur.Timings.RefineNS += ns
	case StageProject:
		c.cur.Timings.ProjectNS += ns
	case StageRebalance:
		c.cur.Timings.RebalanceNS += ns
	}
}

// TakeStart finalizes the per-start accumulation into a StartStats
// and resets the collector for reuse. The supervisor calls it on the
// start's child collector as soon as the start ends, so the child is
// dropped then and only its StartStats is kept; nil-safe, returning a
// skeleton entry (start, outcome, cost and totalNS only).
func (c *Collector) TakeStart(start int, outcome string, cost int, totalNS int64) StartStats {
	s := StartStats{Start: start, Outcome: outcome, Cost: cost}
	if c != nil {
		s.Coarsening = c.cur.Coarsening
		s.CoarsenStop = c.cur.CoarsenStop
		s.Passes = c.cur.Passes
		s.Rebalances = c.cur.Rebalances
		s.RebalanceMoved = c.cur.RebalanceMoved
		s.Timings = c.cur.Timings
		c.cur = StartStats{}
		c.pendingPairs, c.pendingSingletons = 0, 0
		c.level = 0
	}
	s.Timings.TotalNS = totalNS
	return s
}

// AttachStarts sets the report's per-start aggregates (one per start,
// in start order) to ss. The supervisor calls it once, after the pool
// drains, which is what makes the report parallelism-invariant.
func (c *Collector) AttachStarts(ss []StartStats) {
	if c == nil {
		return
	}
	c.report.PerStart = ss
}

// FinishRun fills the report header. Called exactly once per run by
// the public API's shared Info-assembly helper.
func (c *Collector) FinishRun(k int, seed int64, starts, bestStart, cut, sumDegrees, levels int) {
	if c == nil {
		return
	}
	c.report.Schema = SchemaVersion
	c.report.K = k
	c.report.Seed = seed
	c.report.Starts = starts
	c.report.BestStart = bestStart
	c.report.Cut = cut
	c.report.SumDegrees = sumDegrees
	c.report.Levels = levels
}

// Report returns the assembled run report, or nil for a disabled
// collector. Valid after the run completes; the pointer aliases the
// collector's state, so copy before reusing the collector.
func (c *Collector) Report() *Report {
	if c == nil {
		return nil
	}
	return &c.report
}
