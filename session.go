package mlpart

import (
	"context"

	"mlpart/internal/core"
)

// Session runs successive partitioning jobs with one reusable
// workspace bundle of its own: the matching sweep's score buffers, the
// induce accumulators, the refinement engine's arrays, the random
// generator and the coarse levels of the hierarchy are grown once and
// reused by every job the session runs, so a job allocates little
// beyond the partition it returns. mlpartd gives each of its executor
// goroutines one Session and runs every job that executor dequeues
// through it.
//
// Every call runs its starts on supervisor workers that each hold one
// bundle for all the starts they run. When a single worker runs them
// (Starts <= 1 or Parallelism 1, say) it runs on the Session's bundle;
// otherwise each worker borrows one from the process-wide pool that
// the package-level entry points use too, and Parallelism stays
// intact. The one-shot entry points differ only in where that single
// worker's bundle comes from: a Session keeps its largest hierarchy
// until it is dropped, where the pool lets an idle bundle go after two
// garbage collections, which a long-lived worker would pay for again
// and again. Nothing a call returns points into a bundle.
//
// A Session is single-goroutine: at most one call may be in flight at
// a time (run concurrent jobs on separate Sessions). Workspace reuse
// is bit-identity preserving, so a job's result bytes are the same
// whether it ran on a Session, on the one-shot entry points, on a
// fresh bundle or after a crash-replay.
type Session struct {
	scratch *core.Scratch
}

// NewSession returns a Session with an empty workspace bundle; the
// buffers grow to the largest instance the session sees.
func NewSession() *Session {
	return &Session{scratch: core.NewScratch()}
}

// PartitionCtx is PartitionCtx on the session's workspaces (see the
// Session contract for when they are used). Options, cancellation,
// fault isolation and the result behave exactly like the package-level
// entry point, and the returned partition is byte-identical to a
// one-shot run with the same inputs.
func (s *Session) PartitionCtx(ctx context.Context, h *Hypergraph, k int, opt Options) (*Partition, Info, error) {
	return partition(ctx, h, k, opt, s.scratch)
}
