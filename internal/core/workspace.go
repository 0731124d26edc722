package core

import (
	"math/rand"
	"sync"

	"mlpart/internal/coarsen"
	"mlpart/internal/fm"
	"mlpart/internal/hypergraph"
	"mlpart/internal/kway"
)

// pipelineWS bundles the workspaces of one pipeline attempt: the
// matching sweep's score buffers, the induce accumulators (which also
// hold the one shared cell side, lent to the level being matched or
// refined), the refinement engines' arrays and buckets, and the
// hierarchy store that holds the coarse levels' net sides. A Scratch
// carries one bundle across successive attempts that run one at a
// time: each multi-start worker holds one for all the starts it runs
// (see RunStarts), so hierarchy levels — and, in V-cycles, whole
// cycles — reuse memory while a bundle is never used by two
// goroutines at once. A call given no Scratch (the core entry points
// called directly, and Hierarchy) creates a bundle of its own.
//
// Sizing contract: every scratch buffer in the bundle reaches its
// final size at the finest level and never grows while the attempt
// runs. Coarsening gets this for free — its first Match and InduceInto
// calls are on the input, and each level is smaller than the last.
// Uncoarsening visits ever larger levels, so the level driver's
// refiners Reserve the refinement workspace for the input hypergraph
// once per attempt. The hierarchy store grows only, to the exact size
// of the largest level it has held at each depth, so an attempt on a
// reused bundle allocates no coarse-level arrays when an earlier
// attempt built a hierarchy at least as large.
//
// Aliasing rule: the levels an attempt builds live in the store and
// are overwritten by the next attempt on the bundle, so nothing a
// caller receives may point into it. The only hazards are the returned
// partition (the level driver copies the coarsest solution into
// per-call buffers before it can return), anything reachable from
// Result, QuadResult or the public Info (counts and per-call slices
// only), and Hierarchy's hypergraphs and clusterings (Hierarchy runs
// on a fresh bundle, whose store is dropped with it).
type pipelineWS struct {
	match  coarsen.Workspace
	induce hypergraph.InduceWorkspace
	refine fm.Workspace
	kway   kway.Workspace
	levels hierarchyWorkspace
}

// hierarchyWorkspace is the hierarchy store: slot i holds the storage
// of the clustering of level i and of the level i+1 it induces.
// Paper Fig. 2 keeps every level H_1..H_m for the uncoarsening sweep,
// so the store keeps one slot per depth rather than a single buffer.
// Only the level in use reads its cell→net lists, so a slot keeps its
// level's net side and the bundle's induce workspace keeps one cell
// side, rebuilt for each level the sweep refines.
//
// Match runs before the store knows whether its level stands, so a
// depth the store has no slot for yet is matched into spare, which
// moves into a new slot only when the level is kept. A dropped Match
// (stalled, stopped, or with nothing to merge) therefore never adds a
// slot: the store holds exactly one per coarse level it has built.
type hierarchyWorkspace struct {
	slots []*levelSlot
	spare hypergraph.Clustering
}

// levelSlot is the reusable storage of one coarse level. The level's
// hypergraph, clustering and partition are the slot's own values,
// rewritten whole by each build, so a level costs one slot header and
// no arrays once the store has held a hierarchy as large. The
// hypergraph owns its areas, net side and weights; its cell side, when
// it has one, is the induce workspace's.
type levelSlot struct {
	h     hypergraph.Hypergraph // the coarse hypergraph, net side only
	c     hypergraph.Clustering // the clustering of the finer level
	fixed []bool                // pads (QuadConfig.Fixed) carried up
	pre   []int32               // their blocks
	part  hypergraph.Partition  // the V-cycle solution carried up
}

// candidate returns the clustering to match depth i into: slot i's
// when the store has one, the spare otherwise. Depths are built in
// order, so i is at most len(hw.slots).
func (hw *hierarchyWorkspace) candidate(i int) *hypergraph.Clustering {
	if i < len(hw.slots) {
		return &hw.slots[i].c
	}
	return &hw.spare
}

// keep returns the slot to build depth i into once its Match stands,
// adding it, with the spare's clustering, when it is new.
func (hw *hierarchyWorkspace) keep(i int) *levelSlot {
	if i == len(hw.slots) {
		hw.slots = append(hw.slots, &levelSlot{c: hw.spare})
		hw.spare = hypergraph.Clustering{}
	}
	return hw.slots[i]
}

// Scratch is a reusable pipeline workspace bundle for sequential
// execution. RunStarts gives each of its workers one, and the worker
// threads it through Config.Scratch / QuadConfig.Scratch into every
// start it runs, so successive starts — and successive calls — reuse
// the same match/induce/refine buffers and the same hierarchy store
// instead of allocating a fresh set per start. A worker runs on the
// caller's own bundle (an mlpart.Session's, one per mlpartd executor)
// when it is the only worker, and otherwise on one borrowed from
// scratchPool.
//
// Contract: a Scratch is used by one goroutine at a time. At most one
// attempt may use it at a time; each supervisor worker holds one
// bundle and runs its starts in order. Reuse is bit-identity
// preserving: every array an attempt reads is rewritten by that
// attempt first, so a result computed on a reused Scratch is
// byte-identical to one computed on a fresh bundle.
//
// Retention: a Scratch keeps the largest hierarchy and the largest
// scratch set it has served until it is dropped. After one job on an
// 8k-cell netgen circuit (k = 2 or 4) that is 72 to 78 bytes per input
// pin, of which the hierarchy store, with the one shared cell side, is
// 29 to 48. A Session holds its bundle for its lifetime; scratchPool
// lets an idle bundle go after two garbage collections.
type Scratch struct {
	ws  pipelineWS
	rng *rand.Rand
}

// NewScratch returns an empty reusable workspace bundle.
func NewScratch() *Scratch { return &Scratch{} }

// scratchPool holds the idle bundles of RunStarts workers that have no
// caller bundle to run on. Between Get and Put a bundle has exactly
// one owner, the worker it was borrowed for. The pool keeps a returned
// bundle for the processor that returned it first, so a call whose
// goroutine has since moved to another processor (a blocking call,
// runtime.GC among them, can move it) may find none there and grow a
// fresh one.
var scratchPool = sync.Pool{New: func() any { return NewScratch() }}

// attemptWS returns the workspace bundle one attempt should use: the
// Scratch's own, or a fresh one for a call given no Scratch (nil
// receiver).
func (s *Scratch) attemptWS() *pipelineWS {
	if s == nil {
		return &pipelineWS{}
	}
	return &s.ws
}

// Rand returns the Scratch's generator, reseeded with seed for one
// attempt. Rand.Seed resets the stream exactly, so it draws the same
// numbers as a new generator with that seed; it is valid until the
// next Rand call.
func (s *Scratch) Rand(seed int64) *rand.Rand {
	if s.rng == nil {
		s.rng = rand.New(rand.NewSource(seed))
	} else {
		s.rng.Seed(seed)
	}
	return s.rng
}
