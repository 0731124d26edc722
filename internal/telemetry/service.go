package telemetry

// Service-level statistics for mlpartd, the long-running partitioning
// daemon. Unlike the per-run Collector — which is single-goroutine by
// contract and merged deterministically by the supervisor — the
// ServiceCollector is hit concurrently by the accept loop, the worker
// pool, and the drain path, so every counter is atomic and a snapshot
// is taken with plain loads (the counters are independent; a snapshot
// is not required to be a consistent cut across all of them).
//
// The same threading rule applies as for Collector: never hold one in
// a package-level variable (the telemetry-thread lint enforces this);
// the server owns its collector and hands references down.

import (
	"io"
	"runtime"
	"sync"
	"sync/atomic"
)

// ServiceSchemaVersion identifies the /statsz JSON layout; bump on
// any incompatible field change.
const ServiceSchemaVersion = "mlpartd-stats/1"

// ServiceReport is the machine-readable service snapshot served at
// /statsz and validated by cmd/statscheck. Counters are monotonic
// since process start; gauges describe the instant of the snapshot.
type ServiceReport struct {
	// Schema is ServiceSchemaVersion.
	Schema string `json:"schema"`

	// Accepted counts jobs admitted past the admission queue —
	// every one of them reaches exactly one terminal status below.
	Accepted int64 `json:"accepted"`
	// RejectedQueueFull counts submissions shed with a 429 because
	// the admission queue was at capacity.
	RejectedQueueFull int64 `json:"rejected_queue_full"`
	// RejectedDraining counts submissions refused with a 503 because
	// the server was draining.
	RejectedDraining int64 `json:"rejected_draining"`
	// Invalid counts submissions rejected before admission for
	// malformed input (bad JSON, bad netlist, bad options).
	Invalid int64 `json:"invalid"`

	// Terminal-status counters; their sum plus the queued and running
	// gauges equals Accepted.
	Completed        int64 `json:"completed"`
	Failed           int64 `json:"failed"`
	Cancelled        int64 `json:"cancelled"`
	DeadlineExceeded int64 `json:"deadline_exceeded"`
	Drained          int64 `json:"drained"`

	// Crash-recovery counters (write-ahead journal). Recovered counts
	// jobs re-enqueued at startup because a previous process died
	// after accepting them but before they reached a terminal status;
	// every recovered job is also counted in Accepted, so the ledger
	// balance equation holds across restarts. ReplayedTerminal counts
	// journal terminal records replayed at startup — closed jobs that
	// must not be re-run (they keep their id as a tombstone but touch
	// no other counter). TornTailTruncated counts journal replays that
	// had to drop a torn tail. JournalAppendErrors counts lifecycle
	// records that could not be made durable (the job proceeded in
	// memory; a crash before its terminal record re-runs it).
	Recovered           int64 `json:"recovered"`
	ReplayedTerminal    int64 `json:"replayed_terminal"`
	TornTailTruncated   int64 `json:"torn_tail_truncated"`
	JournalAppendErrors int64 `json:"journal_append_errors"`

	// IdempotentReplays counts submissions answered with an existing
	// job because their Idempotency-Key was already registered; they
	// are not admitted again and do not count in Accepted.
	IdempotentReplays int64 `json:"idempotent_replays"`

	// CacheHits / CacheMisses count result-cache lookups for
	// accepted jobs.
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`

	// Batched and BatchFlushes always read 0: mlpartd has no batch
	// lane any more. They remain, with their JSON keys, only so the
	// mlpartd-stats/1 shape and existing readers stay unchanged.
	//
	// Deprecated: always 0; will be removed.
	Batched      int64 `json:"batched"`
	BatchFlushes int64 `json:"batch_flushes"`

	// EventsDropped counts job event streams cut short by an injected
	// server.events cancel before the job reached its terminal event.
	// A slow reader is never dropped: a stream is computed from its
	// job's state, so it cannot hold the job up.
	EventsDropped int64 `json:"events_dropped"`

	// Queued and Running are instantaneous gauges; QueueCap is the
	// admission queue capacity.
	Queued   int64 `json:"queued"`
	Running  int64 `json:"running"`
	QueueCap int   `json:"queue_cap"`
	// Draining reports that the server has stopped admitting and is
	// winding down.
	Draining bool `json:"draining"`
	// UptimeNS is the wall-clock age of the service at snapshot time.
	// Like the per-run *_ns fields it is nondeterministic.
	UptimeNS int64 `json:"uptime_ns"`
}

// WriteJSON writes the report as indented JSON with a trailing
// newline — the canonical /statsz encoding, matching Report.WriteJSON.
func (r *ServiceReport) WriteJSON(w io.Writer) error { return writeJSON(w, r) }

// ServiceCollector accumulates the service counters. All methods are
// safe for concurrent use. The zero value is ready to use.
type ServiceCollector struct {
	accepted          atomic.Int64
	rejectedQueueFull atomic.Int64
	rejectedDraining  atomic.Int64
	invalid           atomic.Int64
	completed         atomic.Int64
	failed            atomic.Int64
	cancelled         atomic.Int64
	deadlineExceeded  atomic.Int64
	drained           atomic.Int64
	recovered         atomic.Int64
	replayedTerminal  atomic.Int64
	tornTruncated     atomic.Int64
	journalAppendErrs atomic.Int64
	idempotentReplays atomic.Int64
	cacheHits         atomic.Int64
	cacheMisses       atomic.Int64
	eventsDropped     atomic.Int64
	queued            atomic.Int64
	running           atomic.Int64

	// bench aggregates the per-stage wall-clock profile of executed
	// attempts by algorithm, for the mlpart-bench/1 view of /statsz.
	// A mutex (not atomics) because one attempt updates several fields
	// that the bench snapshot reads together.
	bench struct {
		mu  sync.Mutex
		agg map[int]*benchAgg // keyed by k (2, 4)
	}
}

// benchAgg is the cumulative stage profile of every executed attempt
// for one algorithm.
type benchAgg struct {
	jobs        int64
	cut, levels int // last observed — a sample, not a sum
	stage       BenchStageNS
}

// Accept records one admitted job entering the queue.
func (s *ServiceCollector) Accept() {
	s.accepted.Add(1)
	s.queued.Add(1)
}

// RejectQueueFull records one submission shed at a full queue.
func (s *ServiceCollector) RejectQueueFull() { s.rejectedQueueFull.Add(1) }

// RejectDraining records one submission refused during drain.
func (s *ServiceCollector) RejectDraining() { s.rejectedDraining.Add(1) }

// RejectInvalid records one malformed submission.
func (s *ServiceCollector) RejectInvalid() { s.invalid.Add(1) }

// StartJob moves one job from queued to running.
func (s *ServiceCollector) StartJob() {
	s.queued.Add(-1)
	s.running.Add(1)
}

// RecoverJob records one journaled job re-enqueued at startup; the
// caller also calls Accept for it, keeping the ledger balanced.
func (s *ServiceCollector) RecoverJob() { s.recovered.Add(1) }

// ReplayTerminal records one journal terminal record replayed at
// startup — a closed job that will not be re-run.
func (s *ServiceCollector) ReplayTerminal() { s.replayedTerminal.Add(1) }

// TornTail records one journal replay that truncated a torn tail.
func (s *ServiceCollector) TornTail() { s.tornTruncated.Add(1) }

// JournalAppendError records one lifecycle record that could not be
// made durable.
func (s *ServiceCollector) JournalAppendError() { s.journalAppendErrs.Add(1) }

// IdempotentReplay records one submission deduplicated by its
// Idempotency-Key.
func (s *ServiceCollector) IdempotentReplay() { s.idempotentReplays.Add(1) }

// CacheHit / CacheMiss record one result-cache lookup.
func (s *ServiceCollector) CacheHit()  { s.cacheHits.Add(1) }
func (s *ServiceCollector) CacheMiss() { s.cacheMisses.Add(1) }

// EventDropped records one live job event stream cut short.
func (s *ServiceCollector) EventDropped() { s.eventsDropped.Add(1) }

// AddStage folds one executed attempt's stage profile into the
// per-algorithm bench aggregate.
func (s *ServiceCollector) AddStage(k, cut, levels int, t BenchStageNS) {
	s.bench.mu.Lock()
	defer s.bench.mu.Unlock()
	if s.bench.agg == nil {
		s.bench.agg = make(map[int]*benchAgg)
	}
	a := s.bench.agg[k]
	if a == nil {
		a = &benchAgg{}
		s.bench.agg[k] = a
	}
	a.jobs++
	a.cut, a.levels = cut, levels
	a.stage.add(t)
}

// FinishJob records a running job reaching the named terminal status
// ("completed", "failed", "cancelled", "deadline-exceeded", or
// "drained"); fromQueue finishes a job that never started running
// (drained or cancelled while still queued).
func (s *ServiceCollector) FinishJob(status string, fromQueue bool) {
	if fromQueue {
		s.queued.Add(-1)
	} else {
		s.running.Add(-1)
	}
	switch status {
	case "completed":
		s.completed.Add(1)
	case "failed":
		s.failed.Add(1)
	case "cancelled":
		s.cancelled.Add(1)
	case "deadline-exceeded":
		s.deadlineExceeded.Add(1)
	case "drained":
		s.drained.Add(1)
	}
}

// Snapshot assembles a report from the current counter values.
// queueCap, draining and uptimeNS are server state owned by the
// caller.
func (s *ServiceCollector) Snapshot(queueCap int, draining bool, uptimeNS int64) ServiceReport {
	return ServiceReport{
		Schema:              ServiceSchemaVersion,
		Accepted:            s.accepted.Load(),
		RejectedQueueFull:   s.rejectedQueueFull.Load(),
		RejectedDraining:    s.rejectedDraining.Load(),
		Invalid:             s.invalid.Load(),
		Completed:           s.completed.Load(),
		Failed:              s.failed.Load(),
		Cancelled:           s.cancelled.Load(),
		DeadlineExceeded:    s.deadlineExceeded.Load(),
		Drained:             s.drained.Load(),
		Recovered:           s.recovered.Load(),
		ReplayedTerminal:    s.replayedTerminal.Load(),
		TornTailTruncated:   s.tornTruncated.Load(),
		JournalAppendErrors: s.journalAppendErrs.Load(),
		IdempotentReplays:   s.idempotentReplays.Load(),
		CacheHits:           s.cacheHits.Load(),
		CacheMisses:         s.cacheMisses.Load(),
		EventsDropped:       s.eventsDropped.Load(),
		Queued:              s.queued.Load(),
		Running:             s.running.Load(),
		QueueCap:            queueCap,
		Draining:            draining,
		UptimeNS:            uptimeNS,
	}
}

// The mlpart-bench/1 view: /statsz?schema=bench renders the service's
// cumulative per-stage timing aggregates in the exact JSON layout
// cmd/benchrun emits, so the same tooling reads offline benchmark
// reports and live service profiles. cmd/benchrun writes its reports
// with the struct trio below.

// BenchSchemaVersion identifies the bench JSON layout.
const BenchSchemaVersion = "mlpart-bench/1"

// BenchStageNS is the per-stage wall-clock profile in nanoseconds.
type BenchStageNS struct {
	CoarsenNS   int64 `json:"coarsen_ns"`
	RefineNS    int64 `json:"refine_ns"`
	ProjectNS   int64 `json:"project_ns"`
	RebalanceNS int64 `json:"rebalance_ns"`
	TotalNS     int64 `json:"total_ns"`
}

func (t *BenchStageNS) add(o BenchStageNS) {
	t.CoarsenNS += o.CoarsenNS
	t.RefineNS += o.RefineNS
	t.ProjectNS += o.ProjectNS
	t.RebalanceNS += o.RebalanceNS
	t.TotalNS += o.TotalNS
}

// BenchStages sums the run's per-start wall-clock profiles into one
// mlpart-bench/1 stage profile.
func (r *Report) BenchStages() BenchStageNS {
	var t BenchStageNS
	for _, ps := range r.PerStart {
		t.add(BenchStageNS{
			CoarsenNS:   ps.Timings.CoarsenNS,
			RefineNS:    ps.Timings.RefineNS,
			ProjectNS:   ps.Timings.ProjectNS,
			RebalanceNS: ps.Timings.RebalanceNS,
			TotalNS:     ps.Timings.TotalNS,
		})
	}
	return t
}

// BenchEntry is one aggregate row. For the service view, Instance is
// the daemon name, Cut and Levels are the last observed values (a
// sample of what the lane is producing, not a sum), StageNS is
// cumulative over every executed attempt, and the allocation fields
// are zero — a live service cannot bracket runs with MemStats reads.
type BenchEntry struct {
	Instance    string       `json:"instance"`
	Algorithm   string       `json:"algorithm"`
	Cut         int          `json:"cut"`
	Levels      int          `json:"levels"`
	AllocsPerOp uint64       `json:"allocs_per_op"`
	BytesPerOp  uint64       `json:"bytes_per_op"`
	StageNS     BenchStageNS `json:"stage_ns"`
}

// BenchReport is the mlpart-bench/1 document.
type BenchReport struct {
	Schema  string       `json:"schema"`
	Date    string       `json:"date"`
	GoVers  string       `json:"go_version"`
	Entries []BenchEntry `json:"entries"`
}

// WriteJSON writes the bench report in the canonical encoding.
func (r *BenchReport) WriteJSON(w io.Writer) error { return writeJSON(w, r) }

// BenchSnapshot assembles the mlpart-bench/1 view from the stage
// aggregates. date is caller-supplied wall-clock state (the collector
// itself never reads the clock). Algorithms the service has not
// executed yet contribute no entry; k=2 sorts before k=4.
func (s *ServiceCollector) BenchSnapshot(date string) BenchReport {
	r := BenchReport{Schema: BenchSchemaVersion, Date: date, GoVers: runtime.Version()}
	s.bench.mu.Lock()
	defer s.bench.mu.Unlock()
	for _, k := range []int{2, 4} {
		a := s.bench.agg[k]
		if a == nil || a.jobs == 0 {
			continue
		}
		alg := "bipartition"
		if k == 4 {
			alg = "quadrisect"
		}
		r.Entries = append(r.Entries, BenchEntry{
			Instance:  "mlpartd",
			Algorithm: alg,
			Cut:       a.cut,
			Levels:    a.levels,
			StageNS:   a.stage,
		})
	}
	return r
}
