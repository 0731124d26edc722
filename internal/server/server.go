// Package server is mlpartd: the long-running partitioning service
// built on the deterministic multilevel pipeline. It turns the
// one-shot library entry points into a job API with the reliability
// properties a shared daemon needs:
//
//   - Admission control at the edge: a bounded queue with explicit
//     overload shedding. A full queue rejects new submissions with
//     429 + Retry-After — it never blocks the accept loop and never
//     drops a job it already accepted, so every accepted job reaches
//     exactly one terminal status.
//   - Per-job deadlines and client cancellation, flowing into the
//     pipeline's context-aware entry point (Session.PartitionCtx);
//     an expired or cancelled job keeps its best-so-far solution.
//   - A result cache keyed by (hypergraph content hash, canonical
//     options fingerprint, k). Results are deterministic, so a cache
//     hit is byte-identical to a recomputation.
//   - Fault isolation per job: a panic — internal or injected through
//     the server.admit / server.job fault sites — fails only the
//     submission or job it hit; a failed job carries a typed
//     ErrorReport. Each admitted job runs once, and so does each of
//     its starts: the pipeline is a pure function of its inputs, so
//     re-running a failed job or start would repeat the same
//     computation.
//   - Graceful degradation on shutdown: Drain stops admission, gives
//     in-flight and queued jobs a grace period, then winds the rest
//     down cooperatively into the drained terminal status.
package server

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"mlpart"
	"mlpart/internal/core"
	"mlpart/internal/faultinject"
	"mlpart/internal/hypergraph"
	"mlpart/internal/journal"
	"mlpart/internal/telemetry"
)

// Config tunes the service. The zero value selects production-shaped
// defaults; see the field comments.
type Config struct {
	// QueueDepth bounds the admission queue (default 64). A full
	// queue sheds new submissions with 429 + Retry-After.
	QueueDepth int
	// Workers is the number of concurrent job executors (default
	// min(4, GOMAXPROCS)). Each executor owns one mlpart.Session and
	// runs every job it dequeues on that Session's workspaces.
	// Parallelism *within* a job is the job's own options.parallelism.
	Workers int
	// DefaultTimeout is the per-job deadline applied when a
	// submission names none (default 30s).
	DefaultTimeout time.Duration
	// MaxTimeout caps client-requested deadlines (default 5m).
	MaxTimeout time.Duration
	// DrainTimeout is the grace period Drain gives in-flight and
	// queued jobs before cancelling them into the drained status
	// (default 10s).
	DrainTimeout time.Duration
	// CacheCap bounds the result cache in entries (default 256;
	// negative disables caching).
	CacheCap int
	// MaxBodyBytes bounds a submission's request body (default 64MiB).
	MaxBodyBytes int64
	// Limits are the netlist parser resource limits applied to
	// submitted hypergraphs (zero fields select the defaults).
	Limits hypergraph.Limits
	// JournalPath names the write-ahead job journal. Empty disables
	// crash durability: jobs live only in memory, exactly the
	// pre-journal behavior. When set, New replays the journal before
	// admitting anything — closed jobs become queryable tombstones,
	// accepted-but-unfinished jobs are re-enqueued — and every
	// accepted job is journaled and synced before its 202 response.
	JournalPath string
	// JournalAppendHook, when non-nil, runs after every durable
	// journal append with the 1-based append count. The crash harness
	// uses it to SIGKILL the process at exact journal positions.
	JournalAppendHook func(n int)
	// BatchPinLimit is ignored. Every executor already reuses its own
	// workspaces, which was the only effect of the removed micro-batch
	// lane; the field stays so existing callers still compile.
	//
	// Deprecated: no effect; will be removed.
	BatchPinLimit int
	// Inject arms deterministic fault injection at the server.admit
	// and server.job sites. Per-submission injectors are derived from
	// the admission sequence number — every submission consumes one,
	// accepted or not — so a plan entry with Start s targets the s-th
	// submission. The journal.append and journal.replay sites use the
	// fixed derivation (start 0) with OnHit counting appends /
	// replayed frames. Nil adds one pointer check per site.
	Inject *faultinject.Plan
}

// retryAfterSecs is the Retry-After hint, in seconds, attached to
// overload and draining rejections.
const retryAfterSecs = "1"

func (c Config) withDefaults() Config {
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.Workers == 0 {
		c.Workers = min(4, core.DefaultWorkers())
	}
	if c.DefaultTimeout == 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout == 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	if c.DrainTimeout == 0 {
		c.DrainTimeout = 10 * time.Second
	}
	if c.CacheCap == 0 {
		c.CacheCap = 256
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 64 << 20
	}
	return c
}

// Validate rejects nonsensical configurations and malformed fault
// plans.
func (c Config) Validate() error {
	if c.QueueDepth < 0 {
		return fmt.Errorf("server: negative queue depth %d", c.QueueDepth)
	}
	if c.Workers < 0 {
		return fmt.Errorf("server: negative worker count %d", c.Workers)
	}
	for _, d := range []struct {
		name string
		v    time.Duration
	}{
		{"default timeout", c.DefaultTimeout},
		{"max timeout", c.MaxTimeout},
		{"drain timeout", c.DrainTimeout},
	} {
		if d.v < 0 {
			return fmt.Errorf("server: negative %s %v", d.name, d.v)
		}
	}
	return c.Inject.Validate()
}

// Server is one mlpartd instance. Create it with New, serve Handler,
// and stop it with Drain (graceful) or Close (prompt).
type Server struct {
	cfg Config
	// stats is owned by the server instance — never package-level
	// (see the telemetry-thread lint rule).
	stats *telemetry.ServiceCollector
	t0    time.Time

	// runCtx gates job execution: it is cancelled when the drain
	// grace period expires (or on Close), winding running jobs down
	// cooperatively and short-circuiting still-queued ones into the
	// drained status.
	runCtx    context.Context
	runCancel context.CancelFunc

	// jnl is the write-ahead job journal; nil when JournalPath is
	// empty. Lifecycle appends happen under mu, which serializes them
	// against the state transitions they record.
	jnl *journal.Writer

	// mu guards jobs, seq, draining, idem, every queue send, and every
	// job state transition.
	mu       sync.Mutex
	jobs     map[string]*job
	seq      int
	draining bool
	queue    chan *job
	cache    *resultCache
	// idem maps an Idempotency-Key to the job it first admitted, plus
	// that job's cache key for conflict detection. Rebuilt from the
	// journal on restart.
	idem map[string]idemEntry

	workersDone chan struct{} // closed when every worker has exited
	drainOnce   sync.Once
	drained     chan struct{} // closed when a drain has fully finished
}

// idemEntry records which job an Idempotency-Key admitted and the
// request identity it covered.
type idemEntry struct {
	id  string
	key cacheKey
}

// New starts a server; the worker pool is live on return. When a
// journal is configured, New first replays it — replay happens before
// the queue exists and before any worker starts, so recovered state
// can never race live traffic ("replay before admit").
func New(cfg Config) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	//mllint:ignore ctx-thread the run context is rooted at the server's lifetime, not any request; Drain/Close own its cancellation
	runCtx, runCancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:         cfg,
		stats:       &telemetry.ServiceCollector{},
		t0:          time.Now(),
		runCtx:      runCtx,
		runCancel:   runCancel,
		jobs:        make(map[string]*job),
		cache:       newResultCache(cfg.CacheCap),
		idem:        make(map[string]idemEntry),
		workersDone: make(chan struct{}),
		drained:     make(chan struct{}),
	}

	var recovered []*job
	if cfg.JournalPath != "" {
		var err error
		recovered, err = s.recoverJournal()
		if err != nil {
			runCancel()
			return nil, err
		}
	}
	// Recovered jobs get dedicated queue slots on top of QueueDepth:
	// recovery must never trip the overload shed for jobs the previous
	// process already acknowledged.
	s.queue = make(chan *job, cfg.QueueDepth+len(recovered))
	for _, j := range recovered {
		s.jobs[j.id] = j
		s.stats.Accept()
		s.stats.RecoverJob()
		s.queue <- j
	}

	// Each worker runs its jobs one at a time, so it can own one
	// Session (single-goroutine by contract) for its whole lifetime.
	var wg sync.WaitGroup
	wg.Add(cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		sess := mlpart.NewSession()
		go func() {
			defer wg.Done()
			for j := range s.queue {
				s.runJob(j, sess)
			}
		}()
	}
	go func() {
		wg.Wait()
		close(s.workersDone)
	}()
	return s, nil
}

// Stats snapshots the service counters.
func (s *Server) Stats() telemetry.ServiceReport {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	return s.stats.Snapshot(s.cfg.QueueDepth, draining, time.Since(s.t0).Nanoseconds())
}

// Draining reports whether the server has stopped admitting.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain gracefully shuts the service down: stop admitting (new
// submissions get 503 + Retry-After), give in-flight and queued jobs
// DrainTimeout to finish, then cancel the rest cooperatively — they
// end in the drained terminal status with any best-so-far solution
// attached. Drain returns when every accepted job has reached a
// terminal status and all workers have exited, or when ctx expires
// (the wind-down continues in the background). Safe to call more
// than once; later calls wait for the first drain.
func (s *Server) Drain(ctx context.Context) error {
	s.drainOnce.Do(func() {
		s.mu.Lock()
		s.draining = true
		// Safe to close here: every send happens under mu after
		// re-checking draining, so no sender can be mid-send now.
		close(s.queue)
		s.mu.Unlock()
		go func() {
			grace := time.AfterFunc(s.cfg.DrainTimeout, s.runCancel)
			<-s.workersDone
			grace.Stop()
			s.runCancel()
			// Every accepted job is terminal once the workers exit, so
			// the journal has received its last lifecycle record; sync
			// and close it before reporting the drain complete.
			if s.jnl != nil {
				_ = s.jnl.Close()
			}
			close(s.drained)
		}()
	})
	select {
	case <-s.drained:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close stops the service promptly: running jobs are cancelled
// immediately (they still wind down cooperatively into drained) and
// queued jobs are drained without running. Every accepted job still
// reaches a terminal status before Close returns.
func (s *Server) Close() error {
	s.runCancel()
	//mllint:ignore ctx-thread Close blocks until the wind-down completes by contract; there is no caller deadline to honor
	return s.Drain(context.Background())
}

// rejection is a structured pre-admission refusal. A 429 or 503 is
// one the client may retry later; its reply carries Retry-After.
type rejection struct {
	status int
	code   string
	msg    string
}

// admitJob registers and enqueues a submission that has already been
// parsed and hashed. timeout is the validated per-job deadline (0
// selects DefaultTimeout). It returns the job's snapshot on acceptance
// — with replayed=true when an Idempotency-Key matched an earlier
// admission and no new job was created — or a rejection. The snapshot
// is taken under the lock that admits the job, before any worker can
// pick it up, so the reply shows the admitted state: queued, or
// completed for a cache hit at admission. A panic out of
// admitJob (the server.admit fault site) unwinds into the handler's
// recover barrier and rejects only this submission; mu is released by
// the deferred Unlock.
//
// Journal-before-acknowledge: when a journal is configured, the
// accepted record is appended and synced while still holding mu,
// before the job becomes visible — so no response, queue slot, or
// counter ever refers to a job the journal does not know about. A
// failed append rejects the submission with 503 journal_error rather
// than accepting a job that a crash would silently lose.
func (s *Server) admitJob(h *mlpart.Hypergraph, k int, opt mlpart.Options, timeout time.Duration, wantStats bool, key cacheKey, idemKey string, reqBytes []byte) (view, bool, *rejection) {
	s.mu.Lock()
	defer s.mu.Unlock()

	// Idempotent replay answers before the draining check: returning
	// an already-admitted job is a read, not new work.
	if idemKey != "" {
		if e, ok := s.idem[idemKey]; ok {
			if e.key != key {
				return view{}, false, &rejection{status: 409, code: "idempotency_conflict",
					msg: fmt.Sprintf("Idempotency-Key already used by job %s for a different request", e.id)}
			}
			if j, ok := s.jobs[e.id]; ok {
				s.stats.IdempotentReplay()
				return j.snapshotLocked(), true, nil
			}
		}
	}

	if s.draining {
		s.stats.RejectDraining()
		return view{}, false, &rejection{status: 503, code: "draining", msg: "server is draining; not accepting jobs"}
	}

	// Every submission consumes a sequence number, accepted or not:
	// an injected admission panic must not re-target the next
	// submission forever.
	seq := s.seq
	s.seq++

	if inj := s.cfg.Inject.NewInjector(seq); inj != nil {
		switch inj.Fire(faultinject.SiteServerAdmit) {
		case faultinject.ActCancel:
			// Shed as if the queue were full — the deterministic
			// overload path.
			s.stats.RejectQueueFull()
			return view{}, false, &rejection{status: 429, code: "queue_full", msg: "admission shed (injected)"}
		case faultinject.ActCorrupt:
			// Nothing to corrupt at admission; no-op.
		}
	}

	j := &job{
		id:        fmt.Sprintf("j-%06d", seq),
		seq:       seq,
		h:         h,
		k:         k,
		opt:       opt,
		key:       key,
		timeout:   timeout,
		wantStats: wantStats,
		idemKey:   idemKey,
		status:    StatusQueued,
		started:   make(chan struct{}),
		done:      make(chan struct{}),
	}

	// Admission-time cache lookup: a hit completes the job without
	// consuming a queue slot. The accepted record is still journaled
	// first — the terminal record finishLocked writes must never be a
	// job's first journal appearance.
	if res, ok := s.cache.get(key); ok && !s.cacheBypassed(seq) {
		if rej := s.journalAcceptLocked(j, reqBytes); rej != nil {
			return view{}, false, rej
		}
		s.jobs[j.id] = j
		s.registerIdemLocked(j)
		s.stats.Accept()
		s.stats.CacheHit()
		j.cacheHit = true
		r := res
		s.finishLocked(j, StatusCompleted, &r, nil, true)
		return j.snapshotLocked(), false, nil
	}

	// Capacity check before the journal append: sends happen only
	// under mu, and workers only drain the queue, so a free slot seen
	// here is still free after the append — the send below cannot
	// block, and we never journal a job we end up shedding.
	if len(s.queue) == cap(s.queue) {
		s.stats.RejectQueueFull()
		return view{}, false, &rejection{status: 429, code: "queue_full", msg: fmt.Sprintf("admission queue full (%d jobs)", s.cfg.QueueDepth)}
	}
	if rej := s.journalAcceptLocked(j, reqBytes); rej != nil {
		return view{}, false, rej
	}
	s.queue <- j
	s.jobs[j.id] = j
	s.registerIdemLocked(j)
	s.stats.Accept()
	s.stats.CacheMiss()
	return j.snapshotLocked(), false, nil
}

// journalAcceptLocked makes the accepted record durable before the
// job becomes visible; callers hold mu. A nil return means the record
// is synced (or journaling is off); otherwise the submission must be
// rejected — the one failure mode that may never be absorbed, because
// acknowledging a job the journal lost breaks crash durability.
func (s *Server) journalAcceptLocked(j *job, reqBytes []byte) *rejection {
	err := s.journalAppend(journal.Record{
		Type:        journal.TypeAccepted,
		ID:          j.id,
		Seq:         j.seq,
		ContentHash: j.key.content,
		Fingerprint: j.key.fingerprint,
		K:           j.k,
		IdemKey:     j.idemKey,
		Request:     reqBytes,
	})
	if err == nil {
		return nil
	}
	s.stats.JournalAppendError()
	return &rejection{status: 503, code: "journal_error",
		msg: "could not journal the submission: " + err.Error()}
}

// registerIdemLocked records the job's Idempotency-Key; callers hold
// mu and have already checked for a conflicting prior use.
func (s *Server) registerIdemLocked(j *job) {
	if j.idemKey != "" {
		s.idem[j.idemKey] = idemEntry{id: j.id, key: j.key}
	}
}

// journalAppend appends one lifecycle record, converting an injected
// panic at the journal.append site into an error: a journaling fault
// must fail the record, never the worker goroutine (or the process)
// that hit it. Returns nil when journaling is off.
func (s *Server) journalAppend(rec journal.Record) (err error) {
	if s.jnl == nil {
		return nil
	}
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("journal append panicked: %v", v)
		}
	}()
	return s.jnl.Append(rec)
}

// cacheBypassed reports whether the fault plan arms a corrupt fault
// at server.job for submission seq — interpreted as "treat the cache
// as untrusted for this job": the job skips the result cache and
// recomputes (degraded throughput, still-correct result). This is a
// static scan, not an injector Fire: probing by firing would trigger
// panic entries outside the attempt's recover barrier.
func (s *Server) cacheBypassed(seq int) bool {
	if s.cfg.Inject == nil {
		return false
	}
	for _, e := range s.cfg.Inject.Entries {
		if e.Site == faultinject.SiteServerJob && e.Kind == faultinject.KindCorrupt &&
			(e.Start == faultinject.AnyStart || e.Start == seq) {
			return true
		}
	}
	return false
}

// finishLocked moves j to a terminal status exactly once; callers
// hold mu. fromQueue records whether the job never started running.
// It drops the job's parsed input and cancel func: nothing reads them
// once the job is terminal, and the job table keeps every finished job
// for the life of the process. Closing done publishes the terminal
// event: status never changes again, so event streams read it
// without mu once they have received from done.
// The exactly-once guarantee extends to the journal: the terminal
// record is appended on the one transition that flips the status, so
// a journal can never carry two terminal records for an id. An append
// failure here is absorbed (counted, not surfaced): the job's
// terminal state stands in memory, and the worst a crash can do is
// re-run a finished job — recomputation is byte-identical.
func (s *Server) finishLocked(j *job, st Status, res *Result, rep *ErrorReport, fromQueue bool) {
	if j.status.Terminal() {
		return
	}
	j.status = st
	j.h = nil
	j.cancel = nil
	j.result = res
	j.errrep = rep
	if err := s.journalAppend(journal.Record{Type: journal.TypeTerminal, ID: j.id, Seq: j.seq, Status: string(st)}); err != nil {
		s.stats.JournalAppendError()
	}
	s.stats.FinishJob(string(st), fromQueue)
	close(j.done)
}

// Cancel requests client cancellation of a job. A queued job is
// cancelled immediately; a running one is interrupted cooperatively
// and keeps its best-so-far solution. Cancelling a terminal job is a
// no-op. The second return reports whether the job exists.
func (s *Server) Cancel(id string) (view, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return view{}, false
	}
	if !j.status.Terminal() && !j.cancelRequested {
		j.cancelRequested = true
		if j.status == StatusQueued {
			// The worker will observe the terminal status and skip it.
			s.finishLocked(j, StatusCancelled, nil, nil, true)
		} else {
			j.cancel()
		}
	}
	return j.snapshotLocked(), true
}

// Job returns the current state of a job.
func (s *Server) Job(id string) (view, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return view{}, false
	}
	return j.snapshotLocked(), true
}

// WaitJob blocks until the job reaches a terminal status or ctx
// expires. The bool reports whether the job exists.
func (s *Server) WaitJob(ctx context.Context, id string) (view, bool, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return view{}, false, nil
	}
	select {
	case <-j.done:
	case <-ctx.Done():
		return view{}, true, ctx.Err()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return j.snapshotLocked(), true, nil
}

// runJob executes one dequeued job to a terminal status on the
// executing worker's Session. The worker takes the job's parsed input
// under mu as it marks the job running, so from then on only this call
// holds it.
func (s *Server) runJob(j *job, sess *mlpart.Session) {
	s.mu.Lock()
	if j.status.Terminal() {
		// Cancelled while queued; already terminal.
		s.mu.Unlock()
		return
	}
	if s.runCtx.Err() != nil {
		// The drain grace period expired before the job ran.
		s.finishLocked(j, StatusDrained, nil, nil, true)
		s.mu.Unlock()
		return
	}
	j.status = StatusRunning
	h := j.h
	j.h = nil
	s.stats.StartJob()
	close(j.started)
	// Execution-time cache recheck: an identical job may have
	// completed while this one sat in the queue.
	if res, ok := s.cache.get(j.key); ok && !s.cacheBypassed(j.seq) {
		j.cacheHit = true
		r := res
		s.finishLocked(j, StatusCompleted, &r, nil, false)
		s.mu.Unlock()
		return
	}
	// Job context: deadline + drain/stop, and Cancel through j.cancel.
	deadline := s.cfg.DefaultTimeout
	if j.timeout > 0 {
		deadline = j.timeout
	}
	ctx, cancel := context.WithTimeout(s.runCtx, deadline)
	defer cancel()
	j.cancel = cancel
	s.mu.Unlock()

	p, info, report, err := s.attempt(ctx, j, h, sess)
	res := s.resultOf(j, p, info)

	s.mu.Lock()
	st, rep, interrupted := s.classifyLocked(ctx, j, res, info, err)
	if st == StatusFailed {
		report = nil
	}
	j.interrupted = interrupted
	j.report = report
	if st == StatusCompleted && rep == nil && !interrupted {
		s.cache.put(j.key, *res)
	}
	s.finishLocked(j, st, res, rep, false)
	s.mu.Unlock()
}

// classifyLocked maps one run's outcome to the job's terminal status,
// error report and interrupted flag; callers hold mu, which orders the
// cancelRequested read against Cancel. Classification order matters:
// an interruption cause wins over whatever partial error the
// wind-down produced, and client cancel > drain > deadline (when one
// fires, ctx reads done for all of them).
func (s *Server) classifyLocked(ctx context.Context, j *job, res *Result, info mlpart.Info, err error) (Status, *ErrorReport, bool) {
	switch {
	case j.cancelRequested:
		return StatusCancelled, nil, true
	case s.runCtx.Err() != nil:
		return StatusDrained, nil, true
	case errors.Is(ctx.Err(), context.DeadlineExceeded):
		return StatusDeadlineExceeded, nil, true
	case res == nil:
		if err == nil {
			err = errors.New("server: job produced no solution")
		}
		return StatusFailed, &ErrorReport{Code: errCode(err), Message: err.Error()}, false
	case err != nil:
		// Recovered fault with a feasible degraded solution: keep it,
		// report the fault, do not cache (see runJob).
		return StatusCompleted, &ErrorReport{Code: errCode(err), Message: err.Error()}, info.Interrupted
	}
	return StatusCompleted, nil, info.Interrupted
}

// attempt runs the job's one panic-isolated execution on h, on sess's
// workspaces.
func (s *Server) attempt(ctx context.Context, j *job, h *mlpart.Hypergraph, sess *mlpart.Session) (p *mlpart.Partition, info mlpart.Info, report *telemetry.Report, err error) {
	defer func() {
		if v := recover(); v != nil {
			p, report = nil, nil
			// Same typed error the pipeline's own guards produce, so
			// the ErrorReport classifies it as "internal".
			err = &core.PanicError{Stage: "server.job", Level: -1, Value: v, Stack: debug.Stack()}
		}
	}()

	if inj := s.cfg.Inject.NewInjector(j.seq); inj != nil {
		// The job fault site. Panic unwinds into the recover above and
		// fails the job with code internal; delay eats into the
		// deadline; cancel emulates a client cancellation; corrupt is
		// handled at the cache layer (cacheBypassed), so it is a no-op
		// here.
		if inj.Fire(faultinject.SiteServerJob) == faultinject.ActCancel {
			s.Cancel(j.id)
		}
	}

	// Telemetry is always armed: the per-stage wall-clock profile
	// feeds the mlpart-bench/1 view of /statsz. The report reaches the
	// client only when the job asked for stats.
	opt := j.opt
	opt.Telemetry = mlpart.NewTelemetry()
	p, info, err = sess.PartitionCtx(ctx, h, j.k, opt)
	report = opt.Telemetry.Report()
	if err == nil && p != nil {
		s.stats.AddStage(j.k, info.Cut, info.Levels, report.BenchStages())
	}
	if !j.wantStats {
		report = nil
	}
	return p, info, report, err
}

// resultOf assembles the deterministic result document, or nil when
// the attempt produced no feasible partition.
func (s *Server) resultOf(j *job, p *mlpart.Partition, info mlpart.Info) *Result {
	if p == nil {
		return nil
	}
	parts := make([]int32, len(p.Part))
	copy(parts, p.Part)
	return &Result{
		ContentHash: j.key.content,
		Fingerprint: j.key.fingerprint,
		K:           j.k,
		Cut:         info.Cut,
		SumDegrees:  info.SumDegrees,
		Levels:      info.Levels,
		Partition:   parts,
	}
}

// errCode classifies a pipeline error for the ErrorReport.
func errCode(err error) string {
	var ierr *mlpart.InternalError
	if errors.As(err, &ierr) {
		return "internal"
	}
	var aerr *mlpart.AuditError
	if errors.As(err, &aerr) {
		return "audit"
	}
	return "error"
}
