package kway

import (
	"math/rand"

	"mlpart/internal/fm"
	"mlpart/internal/gainbucket"
)

// Workspace holds the per-run scratch memory of the k-way engine:
// activity flags, per-net block pin counts and spans, the cell ×
// target gain table, the move log and the K gain-bucket structures,
// one per target block. Threading one Workspace through the
// Refine/Partition calls of a multilevel run makes refinement
// allocation-free in steady state.
//
// Buffers only grow. Uncoarsening refines ever larger levels, so a
// multilevel caller sizes the Workspace once for the finest level
// with Reserve before the first run; without that, every level would
// outgrow the previous one's buffers.
//
// Ownership rule: a Workspace belongs to exactly one goroutine and one
// pipeline attempt at a time. It must never be stored in a package
// level variable or shared across concurrent attempts. The zero value
// is ready to use. Reuse never changes results: every buffer is fully
// reinitialized per run before it is read, and the RNG consumption is
// untouched, so runs with and without a Workspace are bit-identical
// (pinned by the oracle differential tests).
type Workspace struct {
	active    []bool
	counts    []int32 // per net × block pin counts, flat [e*k + b]
	span      []int32
	gain      []int32 // per cell × target block, flat [v*k + t]
	initKey   []int32 // CLIP only
	locked    []bool
	areas     []int64
	moveCells []int32
	moveFrom  []int32
	buckets   []*gainbucket.Structure
}

// grab returns the workspace to use for one run: the caller's, or a
// throwaway one so the allocating path shares the same code.
func (c Config) grab() *Workspace {
	if c.WS != nil {
		return c.WS
	}
	return &Workspace{}
}

// Reserve grows every buffer a run under the normalized cfg reads to
// hold a hypergraph of up to cells cells and nets nets, so later runs
// on instances no larger reallocate nothing. Buffers of another
// engine (initKey outside CLIP) are left alone.
func (w *Workspace) Reserve(cfg Config, cells, nets int) {
	w.size(cfg, cells, nets)
	for t := 0; t < cfg.K; t++ {
		w.bucket(t, cells, 0, cfg.Order, nil)
	}
}

// size grows the flat buffers for a run under cfg on cells cells and
// nets nets. Contents are unspecified: the refiner rewrites every
// entry before reading it.
func (w *Workspace) size(cfg Config, cells, nets int) {
	k := cfg.K
	w.active = grow(w.active, nets)
	w.counts = grow(w.counts, nets*k)
	w.span = grow(w.span, nets)
	w.gain = grow(w.gain, cells*k)
	if cfg.Engine == fm.EngineCLIP {
		w.initKey = grow(w.initKey, cells*k)
	}
	w.locked = grow(w.locked, cells)
	w.areas = grow(w.areas, k)
	w.moveCells = grow(w.moveCells, cells)
	w.moveFrom = grow(w.moveFrom, cells)
}

// bucket returns target t's gain bucket sized for this run, reusing
// the stored structure's arrays via Reset.
func (w *Workspace) bucket(t, numCells, maxGain int, order gainbucket.Order, rng *rand.Rand) *gainbucket.Structure {
	for len(w.buckets) <= t {
		w.buckets = append(w.buckets, &gainbucket.Structure{})
	}
	w.buckets[t].Reset(numCells, maxGain, order, rng)
	return w.buckets[t]
}

// grow returns a length-n slice reusing buf's backing array when it
// has the capacity. Contents are unspecified.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}
