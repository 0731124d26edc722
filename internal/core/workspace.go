package core

import (
	"mlpart/internal/coarsen"
	"mlpart/internal/fm"
	"mlpart/internal/hypergraph"
	"mlpart/internal/intrapar"
	"mlpart/internal/kway"
)

// pipelineWS bundles the scratch workspaces of one pipeline attempt:
// the matching sweep's score buffers, the induce accumulators and the
// refinement engines' arrays/buckets. Every entry point creates one
// per call (and the multi-start supervisor therefore gets one per
// attempt goroutine), so hierarchy levels — and, in V-cycles, whole
// cycles — reuse scratch memory while nothing is ever shared across
// goroutines or retained in package state.
//
// Sizing contract: every buffer in the bundle reaches its final size
// at the finest level and never grows while the attempt runs, so an
// attempt allocates only what its hierarchy and result keep plus one
// input-sized scratch set. Coarsening gets this for free — its first
// Match and InduceWSPar calls are on the input, and each level is
// smaller than the last. Uncoarsening visits ever larger levels, so
// the level driver's refiners Reserve the refinement workspace for
// the input hypergraph once per attempt.
//
// Partition buffers deliberately do NOT live here: projected solutions
// escape to callers (VCycleCtx keeps the best candidate across
// cycles), so the level driver uses per-call alternating buffers
// instead.
type pipelineWS struct {
	match  coarsen.Workspace
	induce hypergraph.InduceWorkspace
	refine fm.Workspace
	kway   kway.Workspace

	// pool is the attempt's intra-parallelism worker pool, nil for the
	// serial pipeline. Created once per attempt (goroutines spin up
	// once, not per level) and closed when the attempt returns.
	pool *intrapar.Pool
}

// startPool arms the attempt's worker pool for IntraParallelism intra
// (0 keeps the serial pipeline: a nil pool). The returned cleanup is
// always safe to defer. Both branches reset ws.pool so a reused
// bundle (Scratch) never hands a closed — or stale — pool to a later
// attempt with a different IntraParallelism.
func (ws *pipelineWS) startPool(intra int) func() {
	if intra <= 0 {
		ws.pool = nil
		return func() {}
	}
	ws.pool = intrapar.New(intra)
	return func() {
		ws.pool.Close()
		ws.pool = nil
	}
}

// Scratch is a reusable pipeline workspace bundle for sequential
// batch execution. A caller that runs many small attempts
// back-to-back on one goroutine (mlpartd's micro-batcher) threads one
// Scratch through Config.Scratch / QuadConfig.Scratch so successive
// attempts reuse the same match/induce/refine buffers instead of
// growing a fresh set per job — the per-job setup cost is amortized
// across the batch.
//
// Contract: a Scratch is single-goroutine. At most one attempt may
// use it at a time, so callers must force sequential execution
// (Parallelism 1) for every run that carries it. Reuse is
// bit-identity preserving: every workspace in the bundle is fully
// reset at the start of each use, so a result computed on a reused
// Scratch is byte-identical to one computed on a fresh bundle — the
// same contract the per-attempt workspace reuse across hierarchy
// levels already relies on.
type Scratch struct {
	ws pipelineWS
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
