package mlpart

import (
	"context"

	"mlpart/internal/core"
)

// Session runs successive partitioning jobs with one reusable
// workspace bundle: the matching sweep's score buffers, the induce
// accumulators, the refinement engine's arrays, the random generator
// and the coarse levels of the hierarchy are grown once and reused by
// every job the session runs, so a job allocates little beyond the
// partition it returns. mlpartd gives each of its executor goroutines
// one Session and runs every job that executor dequeues through it.
// The Session keeps the largest hierarchy it has built until it is
// dropped; nothing a call returns points into it.
//
// A Session is single-goroutine: at most one call may be in flight at
// a time (run concurrent jobs on separate Sessions). A call reuses the
// workspaces only when its starts run one at a time — Starts <= 1 or
// Parallelism == 1, where the multi-start supervisor runs them on a
// single worker goroutine while the caller waits, so the workspaces
// are still used by one goroutine at a time. Any other call runs
// exactly like the package-level entry point, on fresh per-start
// workspaces and with its Parallelism intact. Neither choice changes results: workspace reuse
// is bit-identity preserving, so a job's result bytes are the same
// whether it ran on a Session, on the one-shot entry points, or after
// a crash-replay.
type Session struct {
	scratch *core.Scratch
}

// NewSession returns a Session with an empty workspace bundle; the
// buffers grow to the largest instance the session sees.
func NewSession() *Session {
	return &Session{scratch: core.NewScratch()}
}

// PartitionCtx is PartitionCtx on the session's workspaces (see the
// Session contract for when they are reused). Options, cancellation,
// fault isolation and the result behave exactly like the package-level
// entry point, and the returned partition is byte-identical to a
// one-shot run with the same inputs.
func (s *Session) PartitionCtx(ctx context.Context, h *Hypergraph, k int, opt Options) (*Partition, Info, error) {
	return partition(ctx, h, k, opt, s.scratchFor(opt))
}

// scratchFor returns the reusable workspaces when opt's starts run one
// at a time on a single worker, and nil (fresh workspaces per start)
// when they may run concurrently.
func (s *Session) scratchFor(opt Options) *core.Scratch {
	if opt.Starts <= 1 || opt.Parallelism == 1 {
		return s.scratch
	}
	return nil
}
