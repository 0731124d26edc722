package server

// Crash recovery: replaying the write-ahead job journal at startup.
//
// The recovery contract ("journal before acknowledge, replay before
// admit") has two halves. Admission holds the first half: an accepted
// record is durable before any client sees a 202. This file holds the
// second: New replays the journal before the queue exists and before
// any worker starts, so by the time the server admits its first live
// submission, every job the previous process acknowledged is
// accounted for —
//
//   - a job with a replayed terminal record is closed: it becomes a
//     queryable tombstone (id, status, identity — results are not
//     journaled, because a deterministic pipeline recomputes them
//     byte-identically) and is never re-run;
//   - a job with an accepted record but no terminal record is the
//     crash's debt: it is rebuilt from the journaled request bytes and
//     re-enqueued, marked recovered;
//   - a torn tail — the partial frame a crash mid-append leaves — is
//     truncated, not fatal: the torn frame was never acknowledged to
//     any client, so dropping it reproduces exactly what the client
//     already observed.
//
// Replay ends with compaction: the journal is atomically rewritten to
// one slim accepted(+terminal) pair per closed job (keeping the
// Idempotency-Key so duplicate detection survives any number of
// restarts) plus the full accepted record of each live job, then
// reopened for appending.

import (
	"encoding/json"
	"fmt"
	"time"

	"mlpart/internal/faultinject"
	"mlpart/internal/hypergraph"
	"mlpart/internal/journal"
)

// recoverJournal replays cfg.JournalPath, registers tombstones for
// replayed-terminal jobs, rebuilds the idempotency map, compacts the
// journal, and opens it for appending. It returns the recovered live
// jobs in admission order; the caller enqueues them. Called from New
// before the worker pool exists, so no locking is needed.
func (s *Server) recoverJournal() ([]*job, error) {
	recs, st, err := loadJournal(s.cfg.JournalPath, s.cfg.Inject.NewInjector(0))
	if err != nil {
		return nil, err
	}
	if st.Truncated {
		s.stats.TornTail()
	}

	// Fold the record stream into per-job state. First record of each
	// type wins: a valid journal has one accepted and at most one
	// terminal per id, so duplicates can only come from corruption
	// that happened to re-checksum, and trusting the earliest record
	// is the conservative reading.
	type replayState struct {
		accepted    journal.Record
		terminal    journal.Record
		hasAccepted bool
		hasTerminal bool
	}
	states := make(map[string]*replayState)
	var order []string
	maxSeq := -1
	for _, r := range recs {
		if r.Seq > maxSeq {
			maxSeq = r.Seq
		}
		rs, ok := states[r.ID]
		if !ok {
			rs = &replayState{}
			states[r.ID] = rs
			order = append(order, r.ID)
		}
		switch r.Type {
		case journal.TypeAccepted:
			if !rs.hasAccepted {
				rs.accepted, rs.hasAccepted = r, true
			}
		case journal.TypeTerminal:
			if !rs.hasTerminal {
				rs.terminal, rs.hasTerminal = r, true
			}
		}
	}
	// Live submissions continue the journal's sequence so recovered
	// and new job ids never collide.
	s.seq = maxSeq + 1

	var live []*job
	compact := make([]journal.Record, 0, len(order)*2)
	for _, id := range order {
		rs := states[id]
		acc := rs.accepted
		if !rs.hasAccepted {
			// Started/terminal without accepted cannot be produced by
			// this server (accepted is always first and compaction
			// preserves that); treat the orphan as closed if terminal,
			// otherwise drop it — there is no request to re-run.
			if !rs.hasTerminal {
				continue
			}
			acc = journal.Record{Type: journal.TypeAccepted, ID: id, Seq: rs.terminal.Seq}
		}

		if rs.hasTerminal {
			s.registerTombstone(acc, rs.terminal)
			compact = append(compact, slimAccepted(acc), rs.terminal)
			continue
		}

		j, err := rebuildJob(acc, s.cfg.Limits)
		if err != nil {
			// The journaled request no longer passes admission — its
			// options were accepted before admission checked them for
			// k or bounded starts, limits tightened across the restart,
			// or the record was corrupted yet re-checksummed. The job
			// still owes a terminal status: close it as failed rather
			// than dropping it silently.
			term := journal.Record{Type: journal.TypeTerminal, ID: id, Seq: acc.Seq, Status: string(StatusFailed)}
			s.registerTombstone(acc, term)
			if t, ok := s.jobs[id]; ok {
				t.errrep = &ErrorReport{Code: "recovery", Message: err.Error()}
			}
			compact = append(compact, slimAccepted(acc), term)
			continue
		}
		live = append(live, j)
		full := acc
		full.Recovered = true
		compact = append(compact, full)
	}

	// Rebuild idempotency state from the compacted view: keys map to
	// the job that first used them, tombstone or live.
	for _, id := range order {
		rs := states[id]
		if !rs.hasAccepted || rs.accepted.IdemKey == "" {
			continue
		}
		if _, taken := s.idem[rs.accepted.IdemKey]; taken {
			continue
		}
		if _, known := s.jobs[id]; !known && !hasJob(live, id) {
			continue
		}
		s.idem[rs.accepted.IdemKey] = idemEntry{
			id:  id,
			key: cacheKey{content: rs.accepted.ContentHash, fingerprint: rs.accepted.Fingerprint, k: rs.accepted.K},
		}
	}

	// Compact: the rewritten journal is the authoritative account of
	// everything above — in particular it materializes the truncation
	// of any torn tail — and it is in place before the writer reopens,
	// so a crash during recovery itself just replays again.
	if err := journal.Rewrite(s.cfg.JournalPath, compact); err != nil {
		return nil, err
	}
	w, err := journal.OpenAppend(s.cfg.JournalPath, journal.Options{
		Inject:     s.cfg.Inject.NewInjector(0),
		AppendHook: s.cfg.JournalAppendHook,
	})
	if err != nil {
		return nil, err
	}
	s.jnl = w
	return live, nil
}

// loadJournal wraps journal.Load in a recover barrier: an injected
// panic at the journal.replay site becomes a startup error — the
// operator sees a clean refusal, not a half-initialized server.
func loadJournal(path string, inj *faultinject.Injector) (recs []journal.Record, st journal.ReplayStats, err error) {
	defer func() {
		if v := recover(); v != nil {
			recs, st = nil, journal.ReplayStats{}
			err = fmt.Errorf("server: journal replay panicked: %v", v)
		}
	}()
	return journal.Load(path, inj)
}

// registerTombstone installs a closed job from replayed records: it
// keeps its id, terminal status, and identity, answers GET /v1/jobs
// and idempotent replays, and is never re-run. Results are not
// journaled, so a tombstone serves no result document.
func (s *Server) registerTombstone(acc, term journal.Record) {
	st := Status(term.Status)
	if !st.Terminal() {
		st = StatusFailed
	}
	j := &job{
		id:        acc.ID,
		seq:       acc.Seq,
		k:         acc.K,
		key:       cacheKey{content: acc.ContentHash, fingerprint: acc.Fingerprint, k: acc.K},
		idemKey:   acc.IdemKey,
		recovered: true,
		status:    st,
		done:      make(chan struct{}),
	}
	// A tombstone's event stream is born complete: with no started
	// channel it is one terminal event carrying the replayed status.
	close(j.done)
	s.jobs[j.id] = j
	s.stats.ReplayTerminal()
}

// rebuildJob reconstructs a runnable job from a journaled accepted
// record, revalidating the request exactly as admission does now: a
// job journaled before admission checked its options for k, or before
// starts was bounded by mlpart.MaxStarts, fails here and is closed
// failed.
func rebuildJob(acc journal.Record, limits hypergraph.Limits) (*job, error) {
	var req jobRequest
	if err := json.Unmarshal(acc.Request, &req); err != nil {
		return nil, fmt.Errorf("journaled request does not decode: %w", err)
	}
	k := req.blocks()
	opt, err := req.options(k)
	if err != nil {
		return nil, fmt.Errorf("journaled options: %w", err)
	}
	h, err := hypergraph.ReadHGRText(req.HGR.text, limits)
	if err != nil {
		return nil, fmt.Errorf("journaled hgr: %w", err)
	}
	return &job{
		id:        acc.ID,
		seq:       acc.Seq,
		h:         h,
		k:         k,
		opt:       opt,
		key:       cacheKey{content: acc.ContentHash, fingerprint: acc.Fingerprint, k: acc.K},
		timeout:   time.Duration(req.TimeoutMS) * time.Millisecond,
		wantStats: req.Stats,
		idemKey:   acc.IdemKey,
		recovered: true,
		status:    StatusQueued,
		started:   make(chan struct{}),
		done:      make(chan struct{}),
	}, nil
}

// slimAccepted is the compacted form of a closed job's accepted
// record: identity and Idempotency-Key survive, the request bytes do
// not — a closed job is never re-run.
func slimAccepted(acc journal.Record) journal.Record {
	return journal.Record{
		Type:        journal.TypeAccepted,
		ID:          acc.ID,
		Seq:         acc.Seq,
		ContentHash: acc.ContentHash,
		Fingerprint: acc.Fingerprint,
		K:           acc.K,
		IdemKey:     acc.IdemKey,
	}
}

// hasJob reports whether the live set contains id.
func hasJob(live []*job, id string) bool {
	for _, j := range live {
		if j.id == id {
			return true
		}
	}
	return false
}
