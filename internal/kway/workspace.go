package kway

import (
	"math/rand"

	"mlpart/internal/fm"
	"mlpart/internal/gainbucket"
	"mlpart/internal/hypergraph"
)

// Workspace holds the per-run scratch memory of the k-way engine:
// activity flags, per-net block pin counts and spans, the cell ×
// target gain table, the move log and the K gain-bucket structures,
// one per target block. Its growth, Reserve and ownership rules are
// those of fm.Workspace: buffers only grow, a Workspace belongs to one
// goroutine and one pipeline attempt at a time, the zero value is
// ready to use, and reuse never changes results.
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
	w.active = hypergraph.Resize(w.active, nets)
	w.counts = hypergraph.Resize(w.counts, nets*k)
	w.span = hypergraph.Resize(w.span, nets)
	w.gain = hypergraph.Resize(w.gain, cells*k)
	if cfg.Engine == fm.EngineCLIP {
		w.initKey = hypergraph.Resize(w.initKey, cells*k)
	}
	w.locked = hypergraph.Resize(w.locked, cells)
	w.areas = hypergraph.Resize(w.areas, k)
	w.moveCells = hypergraph.Resize(w.moveCells, cells)
	w.moveFrom = hypergraph.Resize(w.moveFrom, cells)
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
