// Package fm implements Fiduccia–Mattheyses iterative-improvement
// bipartitioning with the innovations adopted by Alpert/Huang/Kahng
// (DAC 1997): LIFO gain buckets (§II.A, after Hagen et al.) and the
// CLIP cluster-oriented engine of Dutt & Deng (§II.B), plus the
// paper's §V extensions — Krishnamurthy-style lookahead tie-breaking,
// boundary initialization, and early pass termination.
//
// The FMPartition procedure of the paper maps onto Partition here:
// given a netlist and an initial solution (or nil for random), it
// returns a refined bipartitioning. Nets with more than MaxNetSize
// modules are ignored during refinement and reinserted when measuring
// solution quality, exactly as in §III.B.
package fm

import (
	"fmt"
	"math"

	"mlpart/internal/faultinject"
	"mlpart/internal/gainbucket"
	"mlpart/internal/intrapar"
	"mlpart/internal/telemetry"
)

// Engine selects the iterative-improvement gain scheme.
type Engine int

const (
	// EngineFM is classic Fiduccia–Mattheyses: cells are keyed in the
	// gain buckets by their actual cut gain.
	EngineFM Engine = iota
	// EngineCLIP is the CLIP algorithm of Dutt & Deng: after the
	// initial gains are computed the buckets are concatenated into
	// bucket zero (highest gain first) and thereafter only gain
	// *deltas* key the buckets, which makes adjacency to recently
	// moved cells dominate selection. The bucket index range doubles.
	EngineCLIP
	// EnginePROP is the probability-based gain computation of Dutt &
	// Deng [13] (§II.A): cells are scored by the expected cut benefit
	// under neighbor move probabilities. Non-discrete gains force a
	// heap instead of buckets, costing a runtime factor of ~4–8.
	EnginePROP
	// EngineCLIPPROP composes CLIP with PROP (the CL-PR variant of
	// Table VII): the heap is keyed on the PROP-gain delta since the
	// start of the pass.
	EngineCLIPPROP
)

func (e Engine) String() string {
	switch e {
	case EngineFM:
		return "FM"
	case EngineCLIP:
		return "CLIP"
	case EnginePROP:
		return "PROP"
	case EngineCLIPPROP:
		return "CL-PR"
	}
	return fmt.Sprintf("Engine(%d)", int(e))
}

// Config parameterizes a refinement run. The zero value plus
// Normalize gives the paper's defaults: FM engine, LIFO buckets,
// r = 0.1, nets over 200 pins ignored.
type Config struct {
	// Engine selects FM or CLIP.
	Engine Engine
	// Order is the gain-bucket organization (LIFO, FIFO, Random) of
	// the §II.A tie-breaking study. Default LIFO.
	Order gainbucket.Order
	// Tolerance is the balance parameter r of §I: block areas may
	// deviate from A(V)/2 by max(A(v*), r·A(V)/2). Default 0.1.
	Tolerance float64
	// MaxNetSize: nets with more modules are ignored during
	// refinement (they are still counted when measuring quality).
	// Default 200 (§III.B). Negative means no limit.
	MaxNetSize int
	// MaxPasses bounds the number of FM passes; 0 means run until a
	// pass yields no improvement.
	MaxPasses int
	// Lookahead enables Krishnamurthy-style higher-level gain
	// tie-breaking among cells in the top bucket: 0 or 1 disables,
	// 2 and 3 compare second/third level gains (§II.A / §V
	// extension).
	Lookahead int
	// Boundary, when true, initially inserts only cells incident to
	// cut nets into the gain buckets; interior cells enter lazily
	// when a neighbor's move changes their gain (§V future work,
	// after Hendrickson & Leland).
	Boundary bool
	// EarlyExit, when true, terminates a pass once a long suffix of
	// moves has failed to improve on the pass best (§V future work,
	// after Chaco/Metis early pass termination).
	EarlyExit bool
	// InitialProb is p₀ of the PROP engines (probability that a free
	// cell will move). Default 0.95 per [13]. Ignored by FM and CLIP.
	InitialProb float64
	// Backtrack enables CDIP-style move reversal (§II.B, after Dutt &
	// Deng's CDIP): when the cumulative gain of a pass falls a full
	// maximum-degree below the best prefix — a sequence of bad moves
	// unlikely to be recovered — the sequence is reversed and the
	// reversed cells stay locked in place, forcing the pass to try a
	// different sequence instead of riding out the bad one. Composes
	// with CLIP and lookahead (the paper's CD-LA3 configuration).
	// Not supported by the PROP engines.
	Backtrack bool
	// Stop, when non-nil, is polled at pass boundaries; returning true
	// aborts refinement cooperatively. The partition is left in its
	// best-prefix state (rollback always completes), so an interrupted
	// run still yields a feasible solution with Result.Interrupted set.
	Stop func() bool
	// Inject optionally arms deterministic fault injection at the
	// fm.pass site (pass boundaries); nil costs one pointer check.
	Inject *faultinject.Injector
	// Telemetry optionally records per-pass statistics (cut
	// before/after, moves tried/kept, rollback depth) and rebalance
	// counts; nil costs one pointer check per pass.
	Telemetry *telemetry.Collector
	// Par is ignored: the gain recompute is serial.
	//
	// Deprecated: the intra-run pool is gone; the next benchmark change
	// removes this field.
	Par *intrapar.Pool
	// WS optionally supplies reusable scratch memory (gain arrays,
	// bucket structures, move logs) shared across successive runs,
	// making refinement allocation-free in steady state. Results are
	// bit-identical with or without it. A Workspace must not be shared
	// across goroutines; nil allocates scratch per run.
	WS *Workspace
}

// Normalize fills in defaults and validates ranges.
func (c Config) Normalize() (Config, error) {
	if c.Tolerance == 0 {
		c.Tolerance = 0.1
	}
	if math.IsNaN(c.Tolerance) || c.Tolerance < 0 || c.Tolerance >= 1 {
		return c, fmt.Errorf("fm: tolerance %v outside [0,1)", c.Tolerance)
	}
	if c.MaxNetSize == 0 {
		c.MaxNetSize = 200
	}
	if c.MaxPasses < 0 {
		return c, fmt.Errorf("fm: negative MaxPasses %d", c.MaxPasses)
	}
	if c.Lookahead < 0 || c.Lookahead > 3 {
		return c, fmt.Errorf("fm: lookahead level %d outside [0,3]", c.Lookahead)
	}
	switch c.Engine {
	case EngineFM, EngineCLIP, EnginePROP, EngineCLIPPROP:
	default:
		return c, fmt.Errorf("fm: unknown engine %d", int(c.Engine))
	}
	if c.InitialProb == 0 {
		c.InitialProb = DefaultInitialProb
	}
	if math.IsNaN(c.InitialProb) || c.InitialProb < 0 || c.InitialProb >= 1 {
		return c, fmt.Errorf("fm: initial probability %v outside [0,1)", c.InitialProb)
	}
	if c.Engine == EnginePROP || c.Engine == EngineCLIPPROP {
		if c.Boundary {
			return c, fmt.Errorf("fm: boundary mode is not supported by the PROP engines")
		}
		if c.Lookahead > 1 {
			return c, fmt.Errorf("fm: lookahead is not supported by the PROP engines")
		}
		if c.Backtrack {
			return c, fmt.Errorf("fm: backtracking is not supported by the PROP engines")
		}
	}
	switch c.Order {
	case gainbucket.LIFO, gainbucket.FIFO, gainbucket.Random:
	default:
		return c, fmt.Errorf("fm: unknown bucket order %d", int(c.Order))
	}
	return c, nil
}

// Result reports what a refinement run did.
type Result struct {
	// Cut is the final cut counting all nets, including any the
	// engine ignored for speed.
	Cut int
	// InitialCut is the cut of the starting solution (all nets).
	InitialCut int
	// Passes is the number of FM passes executed.
	Passes int
	// Moves is the total number of cell moves applied (after
	// rollback, i.e. moves that survived into the returned solution).
	Moves int
	// MovesTried is the total number of moves attempted across all
	// passes, including rolled-back ones.
	MovesTried int
	// Interrupted reports that Config.Stop ended the run before the
	// engine converged. The returned partition is still feasible.
	Interrupted bool
	// ActiveCut is the engine's incrementally maintained cut over
	// active nets (those within MaxNetSize) at the end of the run; -1
	// for the PROP engines, which do not keep an incremental counter.
	// Audits cross-check it against a from-scratch recount.
	ActiveCut int
}
