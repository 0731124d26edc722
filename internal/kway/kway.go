// Package kway implements multi-way FM partitioning in the style of
// Sanchis ("Multiple-Way Network Partitioning", IEEE ToC 1989)
// without lookahead, as used for quadrisection in §III.C of
// Alpert/Huang/Kahng. Both the net-cut and the sum-of-cluster-degrees
// gain computations of the paper are provided; the paper's
// quadrisection results use sum of degrees. Modules (e.g. I/O pads)
// can be pre-assigned to blocks and excluded from refinement.
package kway

import (
	"fmt"
	"math"
	"math/rand"

	"mlpart/internal/faultinject"
	"mlpart/internal/fm"
	"mlpart/internal/gainbucket"
	"mlpart/internal/hypergraph"
	"mlpart/internal/telemetry"
)

// Objective selects the k-way gain computation (§III.C).
type Objective int

const (
	// SumOfDegrees minimizes Σ_e (span(e) − 1); the paper's
	// quadrisection results are reported for this gain.
	SumOfDegrees Objective = iota
	// NetCut minimizes the number of nets spanning more than one
	// block.
	NetCut
)

func (o Objective) String() string {
	switch o {
	case SumOfDegrees:
		return "sum-of-degrees"
	case NetCut:
		return "net-cut"
	}
	return fmt.Sprintf("Objective(%d)", int(o))
}

// Config parameterizes k-way refinement.
type Config struct {
	// K is the number of blocks; quadrisection is K = 4. Default 4.
	K int
	// Engine selects plain multi-way FM or the CLIP variant (the
	// bucket-concatenation preprocessing of §II.B applied to each of
	// the K bucket structures; Table IX's CLIP and LSMC_C columns).
	Engine fm.Engine
	// Objective selects the gain computation. Default SumOfDegrees.
	Objective Objective
	// Order is the gain-bucket organization. Default LIFO.
	Order gainbucket.Order
	// Tolerance is the balance parameter r (per-block bound around
	// A(V)/K as in §III.B). Default 0.1.
	Tolerance float64
	// MaxNetSize: larger nets are ignored during refinement but
	// counted in reported quality. Default 200. Negative = no limit.
	MaxNetSize int
	// MaxPasses bounds the number of passes; 0 = until no
	// improvement.
	MaxPasses int
	// Fixed marks pre-assigned cells (e.g. I/O pads) that keep their
	// initial block. Optional; length must be NumCells if non-nil.
	Fixed []bool
	// Stop, when non-nil, is polled at pass boundaries; returning true
	// aborts refinement cooperatively, leaving the partition in its
	// best-prefix state and setting Result.Interrupted.
	Stop func() bool
	// Inject optionally arms deterministic fault injection at the
	// kway.refine site (pass boundaries); nil costs one pointer check.
	Inject *faultinject.Injector
	// Telemetry optionally records per-pass statistics (objective
	// before/after, moves tried/kept) and rebalance counts; nil costs
	// one pointer check per pass.
	Telemetry *telemetry.Collector
	// WS optionally supplies reusable scratch memory (gain table,
	// bucket structures, move log) shared across successive runs,
	// making refinement allocation-free in steady state. Results are
	// bit-identical with or without it. A Workspace must not be shared
	// across goroutines; nil allocates scratch per run.
	WS *Workspace
}

// Normalize fills defaults and validates.
func (c Config) Normalize() (Config, error) {
	if c.K == 0 {
		c.K = 4
	}
	if c.K < 2 || c.K > 64 {
		return c, fmt.Errorf("kway: K = %d outside [2,64]", c.K)
	}
	switch c.Objective {
	case SumOfDegrees, NetCut:
	default:
		return c, fmt.Errorf("kway: unknown objective %d", int(c.Objective))
	}
	switch c.Engine {
	case fm.EngineFM, fm.EngineCLIP:
	case fm.EnginePROP, fm.EngineCLIPPROP:
		return c, fmt.Errorf("kway: engine %v is bipartition-only", c.Engine)
	default:
		return c, fmt.Errorf("kway: unknown engine %d", int(c.Engine))
	}
	if c.Tolerance == 0 {
		c.Tolerance = 0.1
	}
	if math.IsNaN(c.Tolerance) || c.Tolerance < 0 || c.Tolerance >= 1 {
		return c, fmt.Errorf("kway: tolerance %v outside [0,1)", c.Tolerance)
	}
	if c.MaxNetSize == 0 {
		c.MaxNetSize = 200
	}
	if c.MaxPasses < 0 {
		return c, fmt.Errorf("kway: negative MaxPasses")
	}
	switch c.Order {
	case gainbucket.LIFO, gainbucket.FIFO, gainbucket.Random:
	default:
		return c, fmt.Errorf("kway: unknown bucket order %d", int(c.Order))
	}
	return c, nil
}

// Result reports what a k-way refinement run did.
type Result struct {
	// CutNets is the number of nets spanning more than one block in
	// the final solution (all nets counted) — the "# cut nets" metric
	// of Table IX.
	CutNets int
	// SumDegrees is Σ_e (span(e) − 1) in the final solution.
	SumDegrees int
	// InitialCutNets / InitialSumDegrees describe the start.
	InitialCutNets    int
	InitialSumDegrees int
	// Passes and Moves as in package fm.
	Passes int
	Moves  int
	// Interrupted reports that Config.Stop ended the run early; the
	// partition is still feasible.
	Interrupted bool
}

// Partition returns a refined K-way partition of h. If initial is
// nil, a random balanced partition is generated (fixed cells, if any,
// keep their pre-assigned block from cfg — but with a nil initial
// there is no pre-assignment, so Fixed requires an initial solution).
func Partition(h *hypergraph.Hypergraph, initial *hypergraph.Partition, cfg Config, rng *rand.Rand) (*hypergraph.Partition, Result, error) {
	cfg, err := cfg.Normalize()
	if err != nil {
		return nil, Result{}, err
	}
	var p *hypergraph.Partition
	if initial == nil {
		if cfg.Fixed != nil {
			return nil, Result{}, fmt.Errorf("kway: Fixed cells require an initial partition")
		}
		p = hypergraph.RandomPartition(h, cfg.K, cfg.Tolerance, rng)
	} else {
		if initial.K != cfg.K {
			return nil, Result{}, fmt.Errorf("kway: initial partition has K=%d, config K=%d", initial.K, cfg.K)
		}
		if err := initial.Validate(h.NumCells()); err != nil {
			return nil, Result{}, err
		}
		p = initial.Clone()
	}
	bound := hypergraph.Balance(h, cfg.K, cfg.Tolerance)
	if !p.IsBalanced(h, bound) && cfg.Fixed == nil {
		moved := p.Rebalance(h, bound, rng)
		cfg.Telemetry.RecordRebalance(moved)
	}
	res, err := Refine(h, p, cfg, rng)
	return p, res, err
}

// Refine improves the K-way partition p in place.
func Refine(h *hypergraph.Hypergraph, p *hypergraph.Partition, cfg Config, rng *rand.Rand) (Result, error) {
	cfg, err := cfg.Normalize()
	if err != nil {
		return Result{}, err
	}
	if p.K != cfg.K {
		return Result{}, fmt.Errorf("kway: partition K=%d, config K=%d", p.K, cfg.K)
	}
	if err := p.Validate(h.NumCells()); err != nil {
		return Result{}, err
	}
	if cfg.Fixed != nil && len(cfg.Fixed) != h.NumCells() {
		return Result{}, fmt.Errorf("kway: Fixed has %d entries, hypergraph has %d cells", len(cfg.Fixed), h.NumCells())
	}
	r := newRefiner(h, p, cfg, rng)
	return r.run(), nil
}
