package server

import (
	"context"
	"time"

	"mlpart"
	"mlpart/internal/telemetry"
)

// Status is a job's lifecycle state. A job is created queued, moves
// to running at most once, and ends in exactly one terminal status —
// the server's core guarantee: admission control happens only at the
// edge (429/503 before a job exists), so once a job is accepted it is
// never silently dropped.
type Status string

const (
	// StatusQueued: accepted and waiting in the admission queue.
	StatusQueued Status = "queued"
	// StatusRunning: being executed by a worker.
	StatusRunning Status = "running"
	// StatusCompleted: finished with a feasible partition.
	StatusCompleted Status = "completed"
	// StatusFailed: the job's run ended without a usable solution;
	// the job carries a typed ErrorReport.
	StatusFailed Status = "failed"
	// StatusCancelled: the client cancelled the job (DELETE).
	StatusCancelled Status = "cancelled"
	// StatusDeadlineExceeded: the per-job deadline expired; any
	// best-so-far partition is attached.
	StatusDeadlineExceeded Status = "deadline-exceeded"
	// StatusDrained: the job was cut short (or never started) because
	// the server was shutting down; any best-so-far partition is
	// attached.
	StatusDrained Status = "drained"
)

// Terminal reports whether s is a terminal status.
func (s Status) Terminal() bool {
	switch s {
	case StatusCompleted, StatusFailed, StatusCancelled, StatusDeadlineExceeded, StatusDrained:
		return true
	}
	return false
}

// ErrorReport is the typed failure record of a failed job — the
// graceful-degradation contract: a job that fails reports what went
// wrong instead of taking the process down.
type ErrorReport struct {
	// Code classifies the failure: "internal" (recovered panic),
	// "audit" (invariant violation caught by the audit layer), or
	// "error" (any other pipeline error).
	Code string `json:"code"`
	// Message is the underlying error text.
	Message string `json:"message"`
}

// Result is the deterministic result document served at
// /v1/jobs/{id}/result. It is a pure function of (hypergraph content,
// k, options fingerprint): byte-identical across Parallelism values
// and across cache hit vs miss — the server's cache-transparency
// contract. Nondeterministic fields (timings, cache provenance) are
// deliberately excluded; cache provenance travels in the
// X-Mlpartd-Cache response header instead.
type Result struct {
	ContentHash string  `json:"content_hash"`
	Fingerprint string  `json:"fingerprint"`
	K           int     `json:"k"`
	Cut         int     `json:"cut"`
	SumDegrees  int     `json:"sum_degrees"`
	Levels      int     `json:"levels"`
	Partition   []int32 `json:"partition"`
}

// job is one accepted submission. Mutable fields are guarded by the
// server mutex; the immutable inputs (opt, k, key) are set at
// admission and read freely by the worker.
type job struct {
	id  string
	seq int // 0-based admission sequence; drives fault derivation

	// h is the parsed netlist, guarded by the server mutex and held by
	// one owner at a time: the queued job from admission (or journal
	// rebuild) until the worker takes it as it marks the job running.
	// finishLocked clears it on every terminal path, so a finished job
	// keeps its view and result but never its input.
	h   *mlpart.Hypergraph
	k   int
	opt mlpart.Options
	key cacheKey

	// timeout is the validated per-job deadline; 0 selects the
	// server's DefaultTimeout.
	timeout   time.Duration
	wantStats bool
	// idemKey is the client's Idempotency-Key, empty when none was
	// sent; recovered marks a job re-enqueued from the journal after a
	// process death (or a replayed terminal tombstone).
	idemKey   string
	recovered bool

	status      Status
	cacheHit    bool
	interrupted bool
	result      *Result
	errrep      *ErrorReport
	report      *telemetry.Report

	// started is closed when a worker marks the job running, and done
	// on the transition to a terminal status; together they are the
	// job's event stream (see handleJobEvents). started is nil for a
	// replayed tombstone, which was never queued in this process.
	started chan struct{}
	done    chan struct{}
	// cancel interrupts the running job's context; runJob sets it as it
	// marks the job running, and finishLocked clears it.
	cancel context.CancelFunc
	// cancelRequested distinguishes a client cancel from the other
	// context-cancellation causes when classifying an interrupted run.
	cancelRequested bool
}

// view is the job JSON document served at /v1/jobs/{id}. Unlike
// Result it may carry nondeterministic fields (cache_hit, stats
// timings).
type view struct {
	ID          string `json:"id"`
	Status      Status `json:"status"`
	K           int    `json:"k"`
	ContentHash string `json:"content_hash"`
	Fingerprint string `json:"fingerprint"`
	CacheHit    bool   `json:"cache_hit"`
	Interrupted bool   `json:"interrupted,omitempty"`
	// Recovered marks a job that survived a process death: re-enqueued
	// from the journal, or a replayed terminal tombstone.
	Recovered bool              `json:"recovered,omitempty"`
	Error     *ErrorReport      `json:"error,omitempty"`
	Result    *Result           `json:"result,omitempty"`
	Stats     *telemetry.Report `json:"stats,omitempty"`
}

// snapshotLocked renders the job's current state; callers hold the
// server mutex.
func (j *job) snapshotLocked() view {
	return view{
		ID:          j.id,
		Status:      j.status,
		K:           j.k,
		ContentHash: j.key.content,
		Fingerprint: j.key.fingerprint,
		CacheHit:    j.cacheHit,
		Interrupted: j.interrupted,
		Recovered:   j.recovered,
		Error:       j.errrep,
		Result:      j.result,
		Stats:       j.report,
	}
}
