package mlpart

import (
	"context"
	"fmt"
	"io"
	"math/rand"

	"mlpart/internal/audit"
	"mlpart/internal/core"
	"mlpart/internal/faultinject"
	"mlpart/internal/fm"
	"mlpart/internal/gainbucket"
	"mlpart/internal/gfm"
	"mlpart/internal/hypergraph"
	"mlpart/internal/kway"
	"mlpart/internal/lsmc"
	"mlpart/internal/netgen"
	"mlpart/internal/placement"
	"mlpart/internal/placer"
	"mlpart/internal/spectral"
	"mlpart/internal/telemetry"
)

// Re-exported data types. Aliases keep the internal packages private
// while making their types fully usable through this package.
type (
	// Hypergraph is a netlist hypergraph H(V, E).
	Hypergraph = hypergraph.Hypergraph
	// Builder incrementally constructs a Hypergraph.
	Builder = hypergraph.Builder
	// Partition is a K-way assignment of cells to blocks.
	Partition = hypergraph.Partition
	// Clustering is a k-way clustering P^k of the cells.
	Clustering = hypergraph.Clustering
	// BalanceBound is the block-area bound of §III.B.
	BalanceBound = hypergraph.BalanceBound
	// Limits bounds the resources the file parsers will allocate; see
	// DefaultLimits.
	Limits = hypergraph.Limits

	// InternalError is a recovered internal invariant panic (gain
	// buckets, builders, refiners) converted into a typed error at the
	// public API boundary. It records the pipeline stage and hierarchy
	// level where the panic fired; when returned alongside a non-nil
	// partition, that partition is the last good (feasible) solution.
	InternalError = core.PanicError

	// AuditError is a typed invariant violation detected by the audit
	// layer (Options.Audit): a corrupted intermediate solution that the
	// from-scratch cross-checks caught at a level boundary.
	AuditError = audit.Error

	// StartReport is the per-start outcome entry of Info.StartReports.
	StartReport = core.StartReport
	// StartOutcome classifies how one start ended; see the Start*
	// constants.
	StartOutcome = core.Outcome

	// FaultPlan arms deterministic fault injection (Options.Inject):
	// a seed plus entries naming registered sites. Build entries with
	// ParseFaultSpec (CLI "site:kind:n[:start]" syntax); sites are
	// validated against the internal registry when the run starts.
	FaultPlan = faultinject.Plan
	// FaultEntry is one armed fault of a FaultPlan.
	FaultEntry = faultinject.Entry
	// FaultKind is the fault injected when an entry triggers.
	FaultKind = faultinject.Kind

	// Telemetry is the per-run statistics collector (Options.Telemetry).
	// A nil *Telemetry is the disabled state: every instrumented site
	// costs one pointer check. Create one per run with NewTelemetry and
	// read the assembled Report after the run completes.
	Telemetry = telemetry.Collector
	// Report is the machine-readable run report assembled by an armed
	// Telemetry collector: per-level coarsening stats, per-pass
	// refinement stats, rebalance counters, and per-stage wall-clock
	// timings, per start. Everything except the timing fields is
	// bit-identical across Parallelism values; Report.StripTimings
	// zeroes the timings for byte-for-byte comparison.
	Report = telemetry.Report
	// ReportStartStats, ReportLevelStat and ReportPassStat are the
	// nested Report record types.
	ReportStartStats = telemetry.StartStats
	ReportLevelStat  = telemetry.LevelStat
	ReportPassStat   = telemetry.PassStat

	// FMConfig configures the FM/CLIP refinement engine.
	FMConfig = fm.Config
	// FMResult summarizes a refinement run.
	FMResult = fm.Result
	// MLConfig configures the multilevel bipartitioner (Fig. 2).
	MLConfig = core.Config
	// MLResult summarizes a multilevel run.
	MLResult = core.Result
	// QuadConfig configures multilevel quadrisection.
	QuadConfig = core.QuadConfig
	// QuadResult summarizes a multilevel quadrisection run.
	QuadResult = core.QuadResult
	// KwayConfig configures the Sanchis-style multi-way engine.
	KwayConfig = kway.Config
	// LSMCConfig configures the Large-Step Markov Chain baseline.
	LSMCConfig = lsmc.Config
	// PlacementConfig configures the GORDIAN-style quadratic placer.
	PlacementConfig = placement.Config
	// SpectralConfig configures spectral (EIG) bipartitioning.
	SpectralConfig = spectral.Config
	// GFMConfig configures the Gradient-FM baseline [32].
	GFMConfig = gfm.Config
	// PlacerConfig configures the top-down quadrisection placer.
	PlacerConfig = placer.Config
	// Placement is a global cell placement with its HPWL.
	Placement = placer.Placement
	// CircuitSpec describes a synthetic benchmark circuit.
	CircuitSpec = netgen.Spec
	// Circuit is a generated synthetic benchmark instance.
	Circuit = netgen.Circuit
	// MeshSpec describes a 2-D grid circuit with a known near-optimal
	// bisection (ground-truth workload).
	MeshSpec = netgen.MeshSpec
)

// Engine and bucket-order constants.
const (
	EngineFM       = fm.EngineFM
	EngineCLIP     = fm.EngineCLIP
	EnginePROP     = fm.EnginePROP
	EngineCLIPPROP = fm.EngineCLIPPROP

	OrderLIFO   = gainbucket.LIFO
	OrderFIFO   = gainbucket.FIFO
	OrderRandom = gainbucket.Random

	ObjectiveSumOfDegrees = kway.SumOfDegrees
	ObjectiveNetCut       = kway.NetCut
)

// Per-start outcome taxonomy (Info.StartReports[i].Outcome).
const (
	// StartOK: the start completed cleanly.
	StartOK = core.OutcomeOK
	// StartRecovered: an internal panic was recovered and the start
	// still produced a feasible degraded solution.
	StartRecovered = core.OutcomeRecovered
	// StartCancelled: the caller's context was done, so the start was
	// skipped without producing a solution.
	StartCancelled = core.OutcomeCancelled
	// StartFailed: the start ended without a usable solution: a panic
	// the pipeline could not degrade from (at core.project, say) or a
	// failed audit.
	StartFailed = core.OutcomeFailed
)

// Fault kinds for FaultPlan entries.
const (
	// FaultPanic injects a panic, exercising recovery paths.
	FaultPanic = faultinject.KindPanic
	// FaultCancel injects a synthetic cancellation at the site.
	FaultCancel = faultinject.KindCancel
	// FaultDelay injects a sleep, exercising deadline handling.
	FaultDelay = faultinject.KindDelay
	// FaultCorrupt perturbs the intermediate solution at the site.
	FaultCorrupt = faultinject.KindCorrupt
	// FaultAnyStart makes a FaultEntry apply to every start.
	FaultAnyStart = faultinject.AnyStart
)

// ParseFaultSpec parses CLI fault specs ("site:kind:n[:start]", e.g.
// "fm.pass:panic:2" or "core.project:delay:1:0"; kind is panic,
// cancel, delay, or corrupt; n is the 1-based hit to trigger on, or
// pX.Y for a per-hit probability) into a validated FaultPlan seeded
// with seed. Returns nil for an empty spec list.
func ParseFaultSpec(specs []string, seed int64) (*FaultPlan, error) {
	return faultinject.ParseSpecs(specs, seed)
}

// NewBuilder returns a Builder for a hypergraph with n unit-area
// cells.
func NewBuilder(n int) *Builder { return hypergraph.NewBuilder(n) }

// Balance returns the §III.B balance bound for k blocks with
// tolerance r.
func Balance(h *Hypergraph, k int, r float64) BalanceBound { return hypergraph.Balance(h, k, r) }

// MaxStarts bounds Options.Starts. A run keeps one solution, but it
// sizes its per-start reports by Starts before any start runs, so the
// bound caps what one request can make a run allocate up front.
const MaxStarts = 1 << 16

// Options is the convenience configuration for the one-call API.
// The zero value runs ML_F: the FM engine, LIFO buckets, R = 0.5,
// T = 35, r = 0.1. The paper's best bipartitioning setup is ML_C, the
// same with Engine set to EngineCLIP.
type Options struct {
	// Engine: EngineFM or EngineCLIP (the PROP engines are
	// bipartition-only). Default EngineFM (ML_F), the zero value; an
	// mlpartd job request with no "engine" runs it too. The mlpart CLI
	// defaults to -engine clip (ML_C) for -k 2 instead, and to fm for
	// -k 4.
	Engine fm.Engine
	// MatchingRatio R ∈ (0,1]. Default 0.5, except that a
	// quadrisection (k = 4) with no Threshold set runs the paper's
	// R = 1.0 whenever R is 0 or exactly 0.5: the default is filled in
	// before the k = 4 rule reads it, so an explicit 0.5 cannot be told
	// from the default there. Both spellings share one canonical JSON
	// form and fingerprint, and give the same partition.
	MatchingRatio float64
	// Threshold T. Default 35 for bipartitioning, 100 for
	// quadrisection.
	Threshold int
	// Tolerance r. Default 0.1.
	Tolerance float64
	// Seed for all randomness. Runs with equal seeds are identical.
	Seed int64
	// Starts > 1 repeats the whole algorithm with independent derived
	// seeds and keeps the best solution (deterministic tie-break: cut,
	// then start index). Default 1, at most MaxStarts.
	Starts int
	// Parallelism is the inter-start axis: it bounds the worker pool
	// running independent starts, so it only helps when Starts > 1.
	// 0 means min(GOMAXPROCS, Starts), 1 forces sequential execution.
	// The result is bit-identical for every Parallelism value.
	Parallelism int
	// IntraParallelism is accepted and ignored: every start runs
	// serially, so results and timings are the same for every value.
	// Negative is still rejected, and its JSON key still decodes, so
	// requests and journals written with it keep working.
	//
	// Deprecated: it has no effect.
	IntraParallelism int
	// Audit enables from-scratch invariant checks at every level
	// transition (package audit): clustering well-formedness, area
	// conservation, partition validity/balance, and incremental-vs-
	// recomputed cut agreement. O(pins) per transition; off by
	// default.
	Audit bool
	// Inject arms deterministic fault injection for chaos testing; nil
	// (the default) adds no overhead beyond one pointer check per
	// site. See ParseFaultSpec and the README's fault-injection
	// section.
	Inject *FaultPlan
	// Telemetry, when non-nil, collects per-level, per-pass and
	// per-stage statistics for the run; read the assembled report with
	// Telemetry.Report() afterwards. Use a fresh collector per run.
	// Nil (the default) costs one pointer check per instrumented site.
	Telemetry *Telemetry
}

func (o Options) normalize() (Options, error) {
	if o.MatchingRatio == 0 {
		o.MatchingRatio = 0.5
	}
	if o.Starts == 0 {
		o.Starts = 1
	}
	if o.Starts < 1 {
		return o, fmt.Errorf("mlpart: starts %d < 1", o.Starts)
	}
	if o.Starts > MaxStarts {
		return o, fmt.Errorf("mlpart: starts %d > %d", o.Starts, MaxStarts)
	}
	if o.Parallelism < 0 {
		return o, fmt.Errorf("mlpart: parallelism %d < 0", o.Parallelism)
	}
	if o.IntraParallelism < 0 {
		return o, fmt.Errorf("mlpart: intra-parallelism %d < 0", o.IntraParallelism)
	}
	if err := o.Inject.Validate(); err != nil {
		return o, err
	}
	return o, nil
}

// supervisor maps the public options onto the core supervisor config.
func (o Options) supervisor() core.SuperOptions {
	return core.SuperOptions{
		Starts:      o.Starts,
		Parallelism: o.Parallelism,
		Seed:        o.Seed,
		Plan:        o.Inject,
		Telemetry:   o.Telemetry,
	}
}

// Validate reports the error PartitionCtx would return for k blocks
// and o before running anything: it runs the same per-k normalization
// as the entry point, so every range check stays with the package that
// owns it. The entry points run it before any start, and mlpartd runs
// it at admission.
func (o Options) Validate(k int) error {
	_, _, err := o.forK(k, nil)
	return err
}

// solution is one start's partition with what Info reports of it.
type solution struct {
	p                       *Partition
	cut, sumDegrees, levels int
}

// startFunc runs one supervised start (see core.RunStarts).
type startFunc = core.StartFunc[solution]

// forK normalizes o for a k-way run and returns it with the function
// that runs one start on h. It is the one place that differs by k: the
// defaults (T = 35 for k = 2, 100 for k = 4; R = 0.5, or the paper's
// 1.0 for k = 4 when neither R nor T is set), the core entry point,
// and the cost the starts are ranked on (the cut for k = 2, the sum of
// degrees for k = 4). It checks the core configuration the starts run,
// so it fails exactly when the entry point would. The function runs
// each start on the workspace bundle its supervisor worker passes it;
// h may be nil when the function is not run.
func (o Options) forK(k int, h *Hypergraph) (Options, startFunc, error) {
	if k != 2 && k != 4 {
		return o, nil, fmt.Errorf("mlpart: k must be 2 or 4, got %d", k)
	}
	o, err := o.normalize()
	if err != nil {
		return o, nil, err
	}
	if k == 2 {
		cfg := core.Config{
			Threshold: o.Threshold,
			Ratio:     o.MatchingRatio,
			Refine:    fm.Config{Engine: o.Engine, Tolerance: o.Tolerance},
			Audit:     o.Audit,
		}
		_, err = cfg.Normalize()
		return o, func(ctx context.Context, seed int64, inj *faultinject.Injector, tel *Telemetry, sc *core.Scratch) core.Attempt[solution] {
			c := cfg
			c.Inject, c.Telemetry, c.Scratch = inj, tel, sc
			p, res, err := core.BipartitionCtx(ctx, h, c, sc.Rand(seed))
			return core.Attempt[solution]{
				Sol:         solution{p: p, cut: res.Cut, sumDegrees: res.Cut, levels: res.Levels},
				Cost:        res.Cut,
				HasSol:      p != nil,
				Interrupted: res.Interrupted,
				Err:         err,
			}
		}, err
	}
	//mllint:ignore float-eq exact sentinel: 0.5 is the assigned default, never the result of arithmetic
	if o.MatchingRatio == 0.5 && o.Threshold == 0 {
		// The paper's quadrisection setup: R = 1.0, T = 100.
		o.MatchingRatio = 1.0
	}
	cfg := core.QuadConfig{
		Threshold: o.Threshold,
		Ratio:     o.MatchingRatio,
		Refine: kway.Config{
			K:         4,
			Engine:    o.Engine,
			Objective: kway.SumOfDegrees,
			Tolerance: o.Tolerance,
		},
		Audit: o.Audit,
	}
	_, err = cfg.Normalize()
	return o, func(ctx context.Context, seed int64, inj *faultinject.Injector, tel *Telemetry, sc *core.Scratch) core.Attempt[solution] {
		c := cfg
		c.Inject, c.Telemetry, c.Scratch = inj, tel, sc
		p, res, err := core.QuadrisectCtx(ctx, h, c, sc.Rand(seed))
		return core.Attempt[solution]{
			Sol:         solution{p: p, cut: res.CutNets, sumDegrees: res.SumDegrees, levels: res.Levels},
			Cost:        res.SumDegrees,
			HasSol:      p != nil,
			Interrupted: res.Interrupted,
			Err:         err,
		}
	}, err
}

// NewTelemetry returns an armed statistics collector for
// Options.Telemetry. One collector serves one run.
func NewTelemetry() *Telemetry { return telemetry.New() }

// Info reports the outcome of a one-call partitioning run.
type Info struct {
	// Cut is the number of nets spanning more than one block.
	Cut int
	// SumDegrees is Σ_e (span−1); equals Cut for bipartitioning.
	SumDegrees int
	// Levels is the number of coarsening levels of the best run.
	Levels int
	// Starts is the number of independent runs performed.
	Starts int
	// Interrupted reports that the caller's context (its cancellation
	// or deadline, the only deadline a run has) cut the run short. The
	// returned partition is the best feasible solution found so far.
	// Injected cancellations are reported per start, not here.
	Interrupted bool
	// BestStart is the 0-based index of the start whose solution was
	// kept; -1 when no start produced a solution.
	BestStart int
	// StartReports is the per-start outcome taxonomy (ok / recovered /
	// cancelled / failed), indexed by start. Each start runs once: a
	// start that fails (a core.project panic, a failed audit) stays
	// failed, the other starts still run, and the run returns the
	// typed error only when no start completed cleanly.
	StartReports []StartReport
}

// PartitionCtx runs the ML algorithm (Fig. 2) on h for k blocks and
// returns the best solution over opt.Starts independent runs: a
// bipartition (k = 2, FM/CLIP refinement, starts ranked on the cut) or
// a quadrisection (k = 4, §III.C, Sanchis-style multi-way refinement
// with the sum-of-degrees gain of §IV.D, starts ranked on the sum of
// degrees). Any other k fails with Validate's error, before any start.
//
// Once ctx is done, at most one refinement pass of extra work happens
// before the run winds down, and the best feasible partition found so
// far is returned with Info.Interrupted set — cancellation is not an
// error.
//
// Starts run under a fault-isolated supervisor (bounded worker pool,
// per-start derived seeds, deterministic reduction on cost, then start
// index): an internal panic in one start degrades only that start —
// the remaining starts still run — and is surfaced as a
// *InternalError only when no start succeeds cleanly, alongside the
// best recovered solution (nil only when no feasible solution exists
// at all). Info.StartReports carries the per-start outcome taxonomy.
//
// Each supervisor worker runs its starts on one workspace bundle
// borrowed from a process-wide pool and returns it when the run ends,
// so a call on warm bundles allocates little beyond the partition it
// returns; the pool lets idle bundles go after two garbage
// collections. Reuse never changes results (see Session).
func PartitionCtx(ctx context.Context, h *Hypergraph, k int, opt Options) (*Partition, Info, error) {
	return partition(ctx, h, k, opt, nil)
}

// partition is the implementation behind PartitionCtx and
// Session.PartitionCtx; scratch, when non-nil, is the session's
// workspace bundle, which the supervisor uses when a single worker
// runs the starts. Validation, the supervisor, Info and the telemetry
// report header are the same for every k.
func partition(ctx context.Context, h *Hypergraph, k int, opt Options, scratch *core.Scratch) (*Partition, Info, error) {
	opt, run, err := opt.forK(k, h)
	if err != nil {
		return nil, Info{BestStart: -1}, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	// With no solution (bestStart < 0), best is the zero solution.
	sup := opt.supervisor()
	sup.Scratch = scratch
	best, bestStart, reports, err := core.RunStarts(ctx, sup, run)
	info := Info{
		Cut:          best.cut,
		SumDegrees:   best.sumDegrees,
		Levels:       best.levels,
		Starts:       opt.Starts,
		Interrupted:  ctx.Err() != nil,
		BestStart:    bestStart,
		StartReports: reports,
	}
	opt.Telemetry.FinishRun(k, opt.Seed, opt.Starts, bestStart, info.Cut, info.SumDegrees, info.Levels)
	return best.p, info, err
}

// Bipartition runs the ML algorithm (Fig. 2) on h and returns the
// best bipartitioning over opt.Starts independent runs.
func Bipartition(h *Hypergraph, opt Options) (*Partition, Info, error) {
	return PartitionCtx(context.Background(), h, 2, opt)
}

// BipartitionCtx is PartitionCtx with k = 2.
func BipartitionCtx(ctx context.Context, h *Hypergraph, opt Options) (*Partition, Info, error) {
	return PartitionCtx(ctx, h, 2, opt)
}

// Quadrisect runs multilevel 4-way partitioning on h (sum-of-degrees
// gain, as in §IV.D) and returns the best solution over opt.Starts
// runs.
func Quadrisect(h *Hypergraph, opt Options) (*Partition, Info, error) {
	return PartitionCtx(context.Background(), h, 4, opt)
}

// QuadrisectCtx is PartitionCtx with k = 4.
func QuadrisectCtx(ctx context.Context, h *Hypergraph, opt Options) (*Partition, Info, error) {
	return PartitionCtx(ctx, h, 4, opt)
}

// FMBipartition runs a single flat FM/CLIP descent from a random
// start — the paper's baseline engines, usable standalone. Internal
// panics are recovered and returned as a *InternalError.
func FMBipartition(h *Hypergraph, cfg FMConfig, seed int64) (p *Partition, res FMResult, err error) {
	gerr := core.Guard("fm", -1, func() error {
		p, res, err = fm.Partition(h, nil, cfg, rand.New(rand.NewSource(seed)))
		return err
	})
	if gerr != nil {
		return nil, FMResult{}, gerr
	}
	return p, res, err
}

// LSMCBipartition runs the Large-Step Markov Chain baseline (§II.C).
func LSMCBipartition(h *Hypergraph, cfg LSMCConfig, seed int64) (p *Partition, cut int, err error) {
	gerr := core.Guard("lsmc", -1, func() error {
		q, res, ferr := lsmc.Bipartition(h, cfg, rand.New(rand.NewSource(seed)))
		if ferr != nil {
			return ferr
		}
		p, cut = q, res.Cut
		return nil
	})
	if gerr != nil {
		return nil, 0, gerr
	}
	return p, cut, nil
}

// GordianQuadrisect runs the GORDIAN-style quadratic-placement
// quadrisection baseline of §IV.D. pads may be nil (a deterministic
// pseudo-random pad set is chosen).
func GordianQuadrisect(h *Hypergraph, pads []bool, seed int64) (*Partition, int, error) {
	p, res, err := placement.Quadrisect(h, pads, placement.Config{}, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, 0, err
	}
	return p, res.CutNets, nil
}

// SpectralBipartition runs spectral (EIG) bipartitioning: the
// Fiedler vector of the clique-model Laplacian split at the area
// median, optionally FM-refined (cfg.RefineFM).
func SpectralBipartition(h *Hypergraph, cfg SpectralConfig, seed int64) (p *Partition, cut int, err error) {
	gerr := core.Guard("spectral", -1, func() error {
		q, res, ferr := spectral.Bipartition(h, cfg, rand.New(rand.NewSource(seed)))
		if ferr != nil {
			return ferr
		}
		p, cut = q, res.Cut
		return nil
	})
	if gerr != nil {
		return nil, 0, gerr
	}
	return p, cut, nil
}

// GFMBipartition runs the Gradient Fiduccia–Mattheyses baseline of
// [32]: FM refinement alternating with gradient descent on the
// quadratic-wirelength relaxation.
func GFMBipartition(h *Hypergraph, cfg GFMConfig, seed int64) (p *Partition, cut int, err error) {
	gerr := core.Guard("gfm", -1, func() error {
		q, res, ferr := gfm.Bipartition(h, cfg, rand.New(rand.NewSource(seed)))
		if ferr != nil {
			return ferr
		}
		p, cut = q, res.Cut
		return nil
	})
	if gerr != nil {
		return nil, 0, gerr
	}
	return p, cut, nil
}

// RecursiveBisect produces a k-way (power-of-two) partition by
// recursive ML bipartitioning — the classical alternative to the
// paper's direct quadrisection.
func RecursiveBisect(h *Hypergraph, k int, cfg MLConfig, seed int64) (*Partition, error) {
	return RecursiveBisectCtx(context.Background(), h, k, cfg, seed)
}

// RecursiveBisectCtx is RecursiveBisect with cooperative
// cancellation: once ctx is done, every remaining sub-bipartition
// degrades to its projected-and-rebalanced form, so the returned
// k-way partition is always complete and valid.
func RecursiveBisectCtx(ctx context.Context, h *Hypergraph, k int, cfg MLConfig, seed int64) (*Partition, error) {
	return core.RecursiveBisectCtx(ctx, h, k, cfg, rand.New(rand.NewSource(seed)))
}

// VCycle performs iterated multilevel refinement of an existing
// bipartition via restricted coarsening (clusters never span blocks),
// repeating cycles while they improve.
func VCycle(h *Hypergraph, p *Partition, maxCycles int, cfg MLConfig, seed int64) (*Partition, int, error) {
	return VCycleCtx(context.Background(), h, p, maxCycles, cfg, seed)
}

// VCycleCtx is VCycle with cooperative cancellation; an interrupted
// run returns the best solution seen, never worse than the input.
func VCycleCtx(ctx context.Context, h *Hypergraph, p *Partition, maxCycles int, cfg MLConfig, seed int64) (*Partition, int, error) {
	return core.VCycleCtx(ctx, h, p, maxCycles, cfg, rand.New(rand.NewSource(seed)))
}

// TwoPhaseBipartition runs the classical two-phase FM of §II.C: one
// level of Match clustering, then FM on the coarse and fine netlists.
func TwoPhaseBipartition(h *Hypergraph, cfg MLConfig, seed int64) (*Partition, MLResult, error) {
	return core.TwoPhase(h, cfg, rand.New(rand.NewSource(seed)))
}

// Place runs the quadrisection-driven top-down global placer of
// [24]: recursive ML quadrisection with terminal propagation. pads
// (with padX/padY coordinates) may be nil.
func Place(h *Hypergraph, pads []bool, padX, padY []float64, cfg PlacerConfig, seed int64) (*Placement, error) {
	return placer.Place(h, pads, padX, padY, cfg, rand.New(rand.NewSource(seed)))
}

// PlacementHPWL returns the half-perimeter wirelength of coordinates
// x, y for h.
func PlacementHPWL(h *Hypergraph, x, y []float64) float64 { return placer.HPWL(h, x, y) }

// KwayPartition runs flat Sanchis-style multi-way FM from a random
// start (initial may be nil).
func KwayPartition(h *Hypergraph, initial *Partition, cfg KwayConfig, seed int64) (p *Partition, cut int, err error) {
	gerr := core.Guard("kway", -1, func() error {
		q, res, ferr := kway.Partition(h, initial, cfg, rand.New(rand.NewSource(seed)))
		if ferr != nil {
			return ferr
		}
		p, cut = q, res.CutNets
		return nil
	})
	if gerr != nil {
		return nil, 0, gerr
	}
	return p, cut, nil
}

// DefaultLimits returns the default parser resource limits (8Mi
// cells, 16Mi nets, 256Mi pins) used by ReadHGR/ReadNetD.
func DefaultLimits() Limits { return hypergraph.DefaultLimits() }

// ReadHGR parses an hMETIS-format hypergraph under DefaultLimits.
func ReadHGR(r io.Reader) (*Hypergraph, error) { return hypergraph.ReadHGR(r) }

// ReadHGRLimits is ReadHGR with explicit resource limits (zero fields
// select the defaults). Inputs exceeding a limit are rejected before
// proportional memory is allocated.
func ReadHGRLimits(r io.Reader, lim Limits) (*Hypergraph, error) {
	return hypergraph.ReadHGRLimits(r, lim)
}

// WriteHGR writes h in hMETIS format.
func WriteHGR(w io.Writer, h *Hypergraph) error { return hypergraph.WriteHGR(w, h) }

// NetDCircuit is a parsed ACM/SIGDA .netD netlist (hypergraph plus
// pad flags).
type NetDCircuit = hypergraph.NetDCircuit

// ReadNetD parses the ACM/SIGDA .netD benchmark format with an
// optional .are area file (nil for unit areas), under DefaultLimits.
func ReadNetD(netR, areR io.Reader) (*NetDCircuit, error) { return hypergraph.ReadNetD(netR, areR) }

// ReadNetDLimits is ReadNetD with explicit resource limits (zero
// fields select the defaults).
func ReadNetDLimits(netR, areR io.Reader, lim Limits) (*NetDCircuit, error) {
	return hypergraph.ReadNetDLimits(netR, areR, lim)
}

// WriteNetD writes h in .netD format (areW may be nil to skip the
// .are file; pads may be nil).
func WriteNetD(netW, areW io.Writer, h *Hypergraph, pads []bool) error {
	return hypergraph.WriteNetD(netW, areW, h, pads)
}

// ReadPartition reads a one-block-per-line partition file.
func ReadPartition(r io.Reader, numCells int) (*Partition, error) {
	return hypergraph.ReadPartition(r, numCells)
}

// WritePartition writes p one block index per line.
func WritePartition(w io.Writer, p *Partition) error { return hypergraph.WritePartition(w, p) }

// GenerateCircuit builds a deterministic synthetic benchmark circuit.
func GenerateCircuit(spec CircuitSpec) (*Circuit, error) { return netgen.Generate(spec) }

// BenchmarkSpecs returns the Table-I benchmark suite specs.
func BenchmarkSpecs() []CircuitSpec { return netgen.TableISpecs() }

// GenerateMesh builds a 2-D grid circuit; its straight-line bisection
// cut (MeshOptimalCut) is a geometric ground truth for quality tests.
func GenerateMesh(spec MeshSpec) (*Hypergraph, error) { return netgen.GenerateMesh(spec) }

// MeshOptimalCut returns the straight-line bisection cut of a mesh.
func MeshOptimalCut(spec MeshSpec) int { return netgen.MeshOptimalBisectionCut(spec) }
