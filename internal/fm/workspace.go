package fm

import (
	"math/rand"

	"mlpart/internal/gainbucket"
)

// Workspace holds the per-run scratch memory of the refinement
// engines: the FM/CLIP net records, gain arrays, the move log, the two gain-bucket structures of the FM/CLIP
// engines, and the pin counters and heap/probability state of the
// PROP engines. Threading one Workspace through the Refine/Partition
// calls of a multilevel run makes refinement allocation-free in
// steady state.
//
// Buffers only grow. Uncoarsening refines ever larger levels, so a
// multilevel caller sizes the Workspace once for the finest level
// with Reserve before the first run; without that, every level would
// outgrow the previous one's buffers.
//
// Ownership rule: a Workspace belongs to exactly one goroutine and one
// pipeline attempt at a time. It must never be stored in a package
// level variable or shared across concurrent attempts; the multi-start
// supervisor creates one per attempt. The zero value is ready to use.
// Reuse never changes results: every buffer is either fully
// reinitialized per run or grown with make (which zero-fills), and the
// RNG consumption is untouched, so runs with and without a Workspace
// are bit-identical (pinned by the oracle differential tests).
type Workspace struct {
	// FM/CLIP engine state (refine.go).
	nets      []netRec
	netXor    []int32
	gain      []int32
	initKey   []int32
	locked    []bool
	moveCells []int32
	buckets   [2]*gainbucket.Structure

	// PROP engine state (prop.go).
	active   []bool
	pc       [2][]int32
	lc       [2][]int32
	gainF    []float64
	initKeyF []float64
	version  []int32
	pows     []float64
	heaps    [2]propHeap
}

// grab returns the workspace to use for one run: the caller's, or a
// throwaway one so the allocating path shares the same code.
func (c Config) grab() *Workspace {
	if c.WS != nil {
		return c.WS
	}
	return &Workspace{}
}

// Reserve grows every buffer a run under cfg reads to hold a
// hypergraph of up to cells cells and nets nets, so later runs on
// instances no larger reallocate nothing. Buffers only another engine
// reads (CLIP's initKey, the PROP state) are left alone.
func (w *Workspace) Reserve(cfg Config, cells, nets int) {
	if cfg.Engine == EnginePROP || cfg.Engine == EngineCLIPPROP {
		w.sizeProp(cfg, cells, nets)
		return
	}
	w.sizeFM(cfg, cells, nets)
	w.bucket(0, cells, 0, cfg.Order, nil)
	w.bucket(1, cells, 0, cfg.Order, nil)
}

// sizeFM grows the buffers of the FM/CLIP engines for cells cells and
// nets nets. None of them need clearing: nets, netXor, gain and locked
// are rewritten in full before any read (countPins/initPass), and the
// move log starts each run truncated.
func (w *Workspace) sizeFM(cfg Config, cells, nets int) {
	w.nets = grow(w.nets, nets)
	w.netXor = grow(w.netXor, nets)
	w.gain = grow(w.gain, cells)
	w.locked = grow(w.locked, cells)
	w.moveCells = grow(w.moveCells, cells)
	if cfg.Engine == EngineCLIP {
		w.initKey = grow(w.initKey, cells)
	}
}

// sizeProp grows the buffers of the PROP engines for cells cells and
// nets nets; every one is rewritten in full before any read
// (computeCounts/initPass), so none needs clearing.
func (w *Workspace) sizeProp(cfg Config, cells, nets int) {
	w.active = grow(w.active, nets)
	w.locked = grow(w.locked, cells)
	w.gainF = grow(w.gainF, cells)
	w.version = grow(w.version, cells)
	w.pc[0] = grow(w.pc[0], nets)
	w.pc[1] = grow(w.pc[1], nets)
	w.lc[0] = grow(w.lc[0], nets)
	w.lc[1] = grow(w.lc[1], nets)
	w.moveCells = grow(w.moveCells, cells)
	if cfg.Engine == EngineCLIPPROP {
		w.initKeyF = grow(w.initKeyF, cells)
	}
}

// bucket returns the side-s gain bucket sized for this run, reusing
// the stored structure's arrays via Reset when one exists.
func (w *Workspace) bucket(s, numCells, maxGain int, order gainbucket.Order, rng *rand.Rand) *gainbucket.Structure {
	if w.buckets[s] == nil {
		w.buckets[s] = &gainbucket.Structure{}
	}
	w.buckets[s].Reset(numCells, maxGain, order, rng)
	return w.buckets[s]
}

// grow returns a length-n slice reusing buf's backing array when it
// has the capacity. Contents are unspecified.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}
