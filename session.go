package mlpart

import (
	"context"

	"mlpart/internal/core"
)

// Session runs successive partitioning jobs with one reusable scratch
// workspace bundle: the matching sweep's score buffers, the induce
// accumulators, and the refinement engine's arrays are grown once and
// reused by every job the session runs, amortizing the per-job setup
// cost that dominates small instances. mlpartd gives each of its
// executor goroutines one Session and runs every job that executor
// dequeues through it.
//
// A Session is single-goroutine: at most one call may be in flight at
// a time (run concurrent jobs on separate Sessions). A call reuses the
// workspaces only when its starts run one at a time — Starts <= 1 or
// Parallelism == 1, where the multi-start supervisor stays on the
// calling goroutine. Any other call runs exactly like the package-level
// entry point, on fresh per-attempt workspaces and with its
// Parallelism intact. Neither choice changes results: workspace reuse
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

// BipartitionCtx is BipartitionCtx on the session's workspaces (see
// the Session contract for when they are reused). Options,
// cancellation, fault isolation and the result behave exactly like
// the package-level entry point, and the returned partition is
// byte-identical to a one-shot run with the same inputs.
func (s *Session) BipartitionCtx(ctx context.Context, h *Hypergraph, opt Options) (*Partition, Info, error) {
	return bipartitionCtx(ctx, h, opt, s.scratchFor(opt))
}

// QuadrisectCtx is QuadrisectCtx on the session's workspaces, under
// the same contract as Session.BipartitionCtx.
func (s *Session) QuadrisectCtx(ctx context.Context, h *Hypergraph, opt Options) (*Partition, Info, error) {
	return quadrisectCtx(ctx, h, opt, s.scratchFor(opt))
}

// scratchFor returns the reusable workspaces when opt's starts run one
// at a time on the calling goroutine, and nil (fresh workspaces per
// attempt) when they may run concurrently.
func (s *Session) scratchFor(opt Options) *core.Scratch {
	if opt.Starts <= 1 || opt.Parallelism == 1 {
		return s.scratch
	}
	return nil
}
