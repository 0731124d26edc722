package mlpart

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"time"

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
	// StartOK: the start completed cleanly on its first attempt.
	StartOK = core.OutcomeOK
	// StartRecovered: an internal panic was recovered and the start
	// still produced a feasible degraded solution.
	StartRecovered = core.OutcomeRecovered
	// StartRetried: a failed attempt was retried with a fresh seed and
	// the retry completed cleanly.
	StartRetried = core.OutcomeRetried
	// StartTimedOut: the per-attempt deadline expired; the best-so-far
	// solution was kept.
	StartTimedOut = core.OutcomeTimedOut
	// StartCancelled: the caller's context was done, so the start was
	// skipped without producing a solution.
	StartCancelled = core.OutcomeCancelled
	// StartFailed: every attempt failed without a usable solution.
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

// Options is the convenience configuration for the one-call API.
// The zero value runs ML_F: the FM engine, LIFO buckets, R = 0.5,
// T = 35, r = 0.1. The paper's best bipartitioning setup is ML_C, the
// same with Engine set to EngineCLIP.
type Options struct {
	// Engine: EngineFM or EngineCLIP (the PROP engines are
	// bipartition-only). Default EngineFM (ML_F), the zero value; an
	// mlpartd job request with no "engine" runs it too. The mlpart CLI
	// defaults to -engine clip (ML_C) instead.
	Engine fm.Engine
	// MatchingRatio R ∈ (0,1]. Default 0.5.
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
	// then start index). Default 1.
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
	// MaxRetries is how many reseeded retries a start gets after an
	// attempt fails without a usable solution (recovered panics that
	// still yield a feasible partition are kept, not retried).
	// 0 means the default of 1; negative disables retries.
	MaxRetries int
	// AttemptTimeout, when positive, gives each start its own
	// deadline; an expired attempt winds down cooperatively and keeps
	// its best-so-far solution (outcome StartTimedOut, not an error).
	AttemptTimeout time.Duration
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
	if o.Parallelism < 0 {
		return o, fmt.Errorf("mlpart: parallelism %d < 0", o.Parallelism)
	}
	if o.IntraParallelism < 0 {
		return o, fmt.Errorf("mlpart: intra-parallelism %d < 0", o.IntraParallelism)
	}
	if o.MaxRetries == 0 {
		o.MaxRetries = 1
	}
	if o.AttemptTimeout < 0 {
		return o, fmt.Errorf("mlpart: negative attempt timeout %v", o.AttemptTimeout)
	}
	if err := o.Inject.Validate(); err != nil {
		return o, err
	}
	return o, nil
}

// supervisor maps the public options onto the core supervisor config.
func (o Options) supervisor() core.SuperOptions {
	retries := o.MaxRetries
	if retries < 0 {
		retries = 0
	}
	return core.SuperOptions{
		Starts:         o.Starts,
		Parallelism:    o.Parallelism,
		MaxRetries:     retries,
		AttemptTimeout: o.AttemptTimeout,
		Seed:           o.Seed,
		Plan:           o.Inject,
		Telemetry:      o.Telemetry,
	}
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
	// Interrupted reports that the caller's cancellation cut the run
	// short. The returned partition is the best feasible solution
	// found so far. Per-start deadlines (AttemptTimeout) and injected
	// cancellations are reported per start, not here.
	Interrupted bool
	// BestStart is the 0-based index of the start whose solution was
	// kept; -1 when no start produced a solution.
	BestStart int
	// StartReports is the per-start outcome taxonomy (ok / recovered /
	// retried / timed-out / cancelled / failed), indexed by start.
	StartReports []StartReport
}

// errInfo is the Info returned on option-validation failures, before
// any start runs. Both entry points use it so the error paths cannot
// drift.
func errInfo() Info { return Info{BestStart: -1} }

// assembleInfo is the single Info/Report assembly path shared by
// BipartitionCtx and QuadrisectCtx: Levels, BestStart, StartReports
// and the telemetry Report header are populated identically for both
// entry points (including the BestStart < 0 no-solution case, where
// the objective arguments are zero values). Keeping one code path is
// what guarantees the telemetry Report cannot diverge between the
// bipartition and quadrisection APIs.
func (o Options) assembleInfo(ctx context.Context, k, bestStart int, reports []StartReport, cut, sumDegrees, levels int) Info {
	info := Info{
		Starts:       o.Starts,
		BestStart:    bestStart,
		StartReports: reports,
		Interrupted:  ctx.Err() != nil,
	}
	if bestStart >= 0 {
		info.Cut = cut
		info.SumDegrees = sumDegrees
		info.Levels = levels
	}
	o.Telemetry.FinishRun(k, o.Seed, o.Starts, bestStart, info.Cut, info.SumDegrees, info.Levels)
	return info
}

// Bipartition runs the ML algorithm (Fig. 2) on h and returns the
// best bipartitioning over opt.Starts independent runs.
func Bipartition(h *Hypergraph, opt Options) (*Partition, Info, error) {
	return BipartitionCtx(context.Background(), h, opt)
}

// BipartitionCtx is Bipartition with cooperative cancellation. Once
// ctx is done, at most one FM pass of extra work happens before the
// run winds down, and the best feasible partition found so far is
// returned with Info.Interrupted set — cancellation is not an error.
//
// Starts run under a fault-isolated supervisor (bounded worker pool,
// per-start derived seeds, deterministic best-cut reduction): an
// internal panic in one start degrades only that start — the
// remaining starts still run — and is surfaced as a *InternalError
// only when no start succeeds cleanly, alongside the best recovered
// solution (nil only when no feasible solution exists at all).
// Info.StartReports carries the per-start outcome taxonomy.
func BipartitionCtx(ctx context.Context, h *Hypergraph, opt Options) (*Partition, Info, error) {
	return bipartitionCtx(ctx, h, opt, nil)
}

// bipartitionCtx is the shared implementation behind BipartitionCtx
// and Session.BipartitionCtx; scratch, when non-nil, is the session's
// reusable workspace bundle, passed only when the starts run one at a
// time.
func bipartitionCtx(ctx context.Context, h *Hypergraph, opt Options, scratch *core.Scratch) (*Partition, Info, error) {
	opt, err := opt.normalize()
	if err != nil {
		return nil, errInfo(), err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	cfg := core.Config{
		Threshold: opt.Threshold,
		Ratio:     opt.MatchingRatio,
		Refine:    fm.Config{Engine: opt.Engine, Tolerance: opt.Tolerance},
		Audit:     opt.Audit,
		Scratch:   scratch,
	}
	type sol struct {
		p   *Partition
		res core.Result
	}
	best, bestStart, reports, rerr := core.RunStarts(ctx, opt.supervisor(),
		func(actx context.Context, seed int64, inj *faultinject.Injector, tel *Telemetry) core.Attempt[sol] {
			c := cfg
			c.Inject = inj
			c.Telemetry = tel
			p, res, err := core.BipartitionCtx(actx, h, c, scratch.Rand(seed))
			return core.Attempt[sol]{
				Sol:         sol{p: p, res: res},
				Cost:        res.Cut,
				HasSol:      p != nil,
				Interrupted: res.Interrupted,
				Err:         err,
			}
		})
	info := opt.assembleInfo(ctx, 2, bestStart, reports, best.res.Cut, best.res.Cut, best.res.Levels)
	if bestStart < 0 {
		return nil, info, rerr
	}
	return best.p, info, rerr
}

// Quadrisect runs multilevel 4-way partitioning on h (sum-of-degrees
// gain, as in §IV.D) and returns the best solution over opt.Starts
// runs.
func Quadrisect(h *Hypergraph, opt Options) (*Partition, Info, error) {
	return QuadrisectCtx(context.Background(), h, opt)
}

// QuadrisectCtx is Quadrisect with cooperative cancellation, under
// the same fault-isolated multi-start supervisor contract as
// BipartitionCtx (starts are reduced on sum-of-degrees, then start
// index).
func QuadrisectCtx(ctx context.Context, h *Hypergraph, opt Options) (*Partition, Info, error) {
	return quadrisectCtx(ctx, h, opt, nil)
}

// quadrisectCtx is the shared implementation behind QuadrisectCtx and
// Session.QuadrisectCtx; scratch, when non-nil, is the session's
// reusable workspace bundle, passed only when the starts run one at a
// time.
func quadrisectCtx(ctx context.Context, h *Hypergraph, opt Options, scratch *core.Scratch) (*Partition, Info, error) {
	opt, err := opt.normalize()
	if err != nil {
		return nil, errInfo(), err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	//mllint:ignore float-eq exact sentinel: 0.5 is the assigned default, never the result of arithmetic
	if opt.MatchingRatio == 0.5 && opt.Threshold == 0 {
		// The paper's quadrisection setup: R = 1.0, T = 100.
		opt.MatchingRatio = 1.0
	}
	cfg := core.QuadConfig{
		Threshold: opt.Threshold,
		Ratio:     opt.MatchingRatio,
		Refine: kway.Config{
			K:         4,
			Engine:    opt.Engine,
			Objective: kway.SumOfDegrees,
			Tolerance: opt.Tolerance,
		},
		Audit:   opt.Audit,
		Scratch: scratch,
	}
	type sol struct {
		p   *Partition
		res core.QuadResult
	}
	best, bestStart, reports, rerr := core.RunStarts(ctx, opt.supervisor(),
		func(actx context.Context, seed int64, inj *faultinject.Injector, tel *Telemetry) core.Attempt[sol] {
			c := cfg
			c.Inject = inj
			c.Telemetry = tel
			p, res, err := core.QuadrisectCtx(actx, h, c, scratch.Rand(seed))
			return core.Attempt[sol]{
				Sol:         sol{p: p, res: res},
				Cost:        res.SumDegrees,
				HasSol:      p != nil,
				Interrupted: res.Interrupted,
				Err:         err,
			}
		})
	info := opt.assembleInfo(ctx, 4, bestStart, reports, best.res.CutNets, best.res.SumDegrees, best.res.Levels)
	if bestStart < 0 {
		return nil, info, rerr
	}
	return best.p, info, rerr
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

// NewPartitionForTest returns an all-zeros 2-way partition of n
// cells; exported for the CLI end-to-end tests (an intentionally
// unbalanced partition for cutverify's failure path).
func NewPartitionForTest(n int) *Partition {
	p := hypergraph.NewPartition(n, 2)
	p.Part[0] = 1 // two blocks present, grossly unbalanced
	return p
}
