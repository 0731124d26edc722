package fm

import (
	"mlpart/internal/faultinject"
	"mlpart/internal/telemetry"
)

// A PassEngine is a refinement engine as Passes drives it: the engine
// keeps its gains and makes and undoes moves, while the driver keeps
// the tally of the move sequence. The FM/CLIP and PROP engines and
// the k-way engine implement it.
type PassEngine interface {
	// InitPass readies a pass: gains, buckets and locks.
	InitPass()
	// Move selects and applies the pass's next move and returns its
	// gain; ok is false when no feasible move is left.
	Move() (gain int, ok bool)
	// Rollback undoes the pass's moves after the first keep. With
	// resume the pass goes on, so the gains must be ready for Move.
	Rollback(keep int, resume bool)
	// Cost is the objective recorded before and after each pass, or
	// -1 when the engine keeps none.
	Cost() int
	// Corrupt applies the engine's corrupt fault.
	Corrupt()
}

// Passes is the pass driver of the paper's FMPartition (Fig. 2): it
// runs passes until one does not improve, and rolls each back to its
// best prefix. Before each pass it polls Stop and fires Site on
// Inject (cancel ends the run, corrupt calls the engine's Corrupt);
// after each it records the pass under Label.
type Passes struct {
	MaxPasses int // 0 means until a pass does not improve
	Stop      func() bool
	Inject    *faultinject.Injector
	Site      faultinject.Site
	Telemetry *telemetry.Collector
	Label     string
	// Window, when positive, ends a pass after more than Window moves
	// in a row fail to improve on its best prefix (EarlyExit).
	Window int
	// Backtrack, when positive, rolls a pass back to its best prefix
	// and resumes it once its gain falls Backtrack below the best (the
	// CDIP trigger).
	Backtrack int

	// The pass in flight: the gain and length of the move sequence and
	// of its best prefix, the moves tried, and those since the best.
	gain, moves, best, kept, tried, since int
}

// Run refines with e until a pass does not improve, MaxPasses have
// run, or Stop or a cancel fault interrupts it. It returns a Result
// with Passes, Moves, MovesTried and Interrupted set.
func (d *Passes) Run(e PassEngine) Result {
	maxPasses := d.MaxPasses
	if maxPasses == 0 {
		maxPasses = 1 << 30
	}
	var res Result
	for res.Passes < maxPasses {
		if d.Stop != nil && d.Stop() {
			res.Interrupted = true
			break
		}
		if d.Inject != nil {
			act := d.Inject.Fire(d.Site)
			if act == faultinject.ActCancel {
				res.Interrupted = true
				break
			}
			if act == faultinject.ActCorrupt {
				e.Corrupt()
			}
		}
		before := e.Cost()
		improved, kept, tried := d.Pass(e)
		d.Telemetry.RecordPass(d.Label, res.Passes, before, e.Cost(), tried, kept)
		res.Passes++
		res.Moves += kept
		res.MovesTried += tried
		if improved <= 0 {
			break
		}
	}
	return res
}

// Pass runs one pass of e and returns its gain and its kept and tried
// move counts.
func (d *Passes) Pass(e PassEngine) (improved, kept, tried int) {
	d.begin(e)
	for d.step(e) {
	}
	return d.end(e)
}

func (d *Passes) begin(e PassEngine) {
	e.InitPass()
	d.gain, d.moves, d.best, d.kept, d.tried, d.since = 0, 0, 0, 0, 0, 0
}

// step makes one move of the pass in flight and reports whether the
// pass goes on.
func (d *Passes) step(e PassEngine) bool {
	g, ok := e.Move()
	if !ok {
		return false
	}
	d.gain += g
	d.moves++
	d.tried++
	if d.gain > d.best {
		d.best, d.kept, d.since = d.gain, d.moves, 0
		return true
	}
	d.since++
	if d.Window > 0 && d.since > d.Window {
		return false
	}
	if d.Backtrack > 0 && d.best-d.gain >= d.Backtrack {
		e.Rollback(d.kept, true)
		d.gain, d.moves, d.since = d.best, d.kept, 0
	}
	return true
}

// end rolls the pass back to its best prefix.
func (d *Passes) end(e PassEngine) (improved, kept, tried int) {
	e.Rollback(d.kept, false)
	return d.best, d.kept, d.tried
}
