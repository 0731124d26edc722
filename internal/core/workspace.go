package core

import (
	"math/rand"

	"mlpart/internal/coarsen"
	"mlpart/internal/fm"
	"mlpart/internal/hypergraph"
	"mlpart/internal/kway"
)

// pipelineWS bundles the workspaces of one pipeline attempt: the
// matching sweep's score buffers, the induce accumulators, the
// refinement engines' arrays and buckets, and the hierarchy store that
// holds the coarse levels. Every entry point creates one per call (and
// the multi-start supervisor therefore gets one per attempt
// goroutine), so hierarchy levels — and, in V-cycles, whole cycles —
// reuse memory while nothing is ever shared across goroutines or
// retained in package state. A Scratch carries one bundle across the
// attempts of one goroutine.
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
type hierarchyWorkspace struct {
	slots []*levelSlot
}

// levelSlot is the reusable storage of one coarse level. The level's
// hypergraph, clustering and partition are the slot's own values,
// rewritten whole by each build, so a level costs one slot header and
// no arrays once the store has held a hierarchy as large.
type levelSlot struct {
	h     hypergraph.Hypergraph // the coarse hypergraph
	c     hypergraph.Clustering // the clustering of the finer level
	fixed []bool                // pads (QuadConfig.Fixed) carried up
	pre   []int32               // their blocks
	part  hypergraph.Partition  // the V-cycle solution carried up
}

// slot returns the storage to build depth i into, adding it on first
// use.
func (hw *hierarchyWorkspace) slot(i int) *levelSlot {
	for len(hw.slots) <= i {
		hw.slots = append(hw.slots, &levelSlot{})
	}
	return hw.slots[i]
}

// Scratch is a reusable pipeline workspace bundle for sequential
// execution. A caller that runs many attempts back-to-back on one
// goroutine (an mlpart.Session, one per mlpartd executor) threads one
// Scratch through Config.Scratch / QuadConfig.Scratch so successive
// attempts reuse the same match/induce/refine buffers and the same
// hierarchy store instead of allocating a fresh set per attempt.
//
// Contract: a Scratch is single-goroutine. At most one attempt may
// use it at a time, so callers pass it only to runs whose starts
// execute one at a time (Starts 1 or Parallelism 1). Reuse is
// bit-identity preserving: every array an attempt reads is rewritten
// by that attempt first, so a result computed on a reused Scratch is
// byte-identical to one computed on a fresh bundle.
//
// Retention: a Scratch keeps the largest hierarchy and the largest
// scratch set it has served until it is dropped. After one job on an
// 8k-cell netgen circuit that is 108 to 125 bytes per input pin, of
// which the hierarchy store is about 80.
type Scratch struct {
	ws  pipelineWS
	rng *rand.Rand
}

// NewScratch returns an empty reusable workspace bundle.
func NewScratch() *Scratch { return &Scratch{} }

// attemptWS returns the workspace bundle one attempt should use: the
// shared bundle when a Scratch is configured, a fresh per-call bundle
// otherwise (nil receiver = the default per-attempt behavior).
func (s *Scratch) attemptWS() *pipelineWS {
	if s == nil {
		return &pipelineWS{}
	}
	return &s.ws
}

// Rand returns a generator seeded with seed for one attempt: a new
// one for a nil Scratch, otherwise the Scratch's own, reseeded.
// Rand.Seed resets the stream exactly, so both draw the same numbers;
// the reseeded generator is valid until the next Rand call.
func (s *Scratch) Rand(seed int64) *rand.Rand {
	if s == nil {
		return rand.New(rand.NewSource(seed))
	}
	if s.rng == nil {
		s.rng = rand.New(rand.NewSource(seed))
	} else {
		s.rng.Seed(seed)
	}
	return s.rng
}
