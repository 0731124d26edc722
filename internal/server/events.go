package server

// Live event streaming. Every job owns an eventLog — a monotonically
// numbered history of its lifecycle events (queued, started,
// retrying, periodic progress, then exactly one terminal event) — and
// the server owns one more for the service-wide ledger stream. The
// cardinal rule is that a subscriber can never hold up a job: publish
// is non-blocking, and a subscriber whose buffer is full is dropped
// (counted in events_dropped) instead of waited on. The bounded
// history makes Last-Event-ID resume work without unbounded memory.

import (
	"encoding/json"
	"sync"
)

// jobEvent is one rendered event: a per-log 1-based id (the SSE id
// clients resume from), the event name, and the JSON payload.
type jobEvent struct {
	id   int64
	name string
	data []byte
}

// eventSub is one subscriber. Its channel is closed when the stream
// ends (terminal event delivered or log shut) or when the subscriber
// is dropped for falling behind.
type eventSub struct {
	ch     chan jobEvent
	closed bool
}

// closeLocked closes the channel once; callers hold the log's mutex.
func (s *eventSub) closeLocked() {
	if !s.closed {
		s.closed = true
		close(s.ch)
	}
}

// eventLog is a bounded event history plus its live subscribers.
type eventLog struct {
	mu      sync.Mutex
	histCap int
	nextID  int64
	hist    []jobEvent
	subs    map[*eventSub]struct{}
	done    bool
}

func newEventLog(histCap int) *eventLog {
	return &eventLog{histCap: histCap, nextID: 1, subs: make(map[*eventSub]struct{})}
}

// publish appends one event, fans it out without blocking, and
// returns how many subscribers were dropped for being full. terminal
// marks the log complete: the event is delivered, then every
// remaining subscriber's channel is closed and later publishes are
// no-ops (a late progress tick racing the terminal transition must
// not resurrect a finished stream).
func (l *eventLog) publish(name string, data []byte, terminal bool) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.done {
		return 0
	}
	ev := jobEvent{id: l.nextID, name: name, data: data}
	l.nextID++
	l.hist = append(l.hist, ev)
	if len(l.hist) > l.histCap {
		l.hist = l.hist[len(l.hist)-l.histCap:]
	}
	dropped := 0
	for sub := range l.subs {
		select {
		case sub.ch <- ev:
		default:
			sub.closeLocked()
			delete(l.subs, sub)
			dropped++
		}
	}
	if terminal {
		l.done = true
		for sub := range l.subs {
			sub.closeLocked()
			delete(l.subs, sub)
		}
	}
	return dropped
}

// subscribe returns the retained history after lastID and, when the
// log is still live, a registered subscriber for everything that
// follows. The snapshot and the registration happen under one lock
// acquisition, so no event is missed or duplicated between replay and
// live delivery. A nil subscriber means the stream is complete after
// the replay. Events older than the history bound are gone; a resume
// from before the bound replays what is retained.
func (l *eventLog) subscribe(lastID int64, buf int) ([]jobEvent, *eventSub) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var replay []jobEvent
	for _, ev := range l.hist {
		if ev.id > lastID {
			replay = append(replay, ev)
		}
	}
	if l.done {
		return replay, nil
	}
	sub := &eventSub{ch: make(chan jobEvent, buf)}
	l.subs[sub] = struct{}{}
	return replay, sub
}

// unsubscribe detaches a subscriber (client went away); safe to call
// for one already dropped or closed.
func (l *eventLog) unsubscribe(sub *eventSub) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.subs[sub]; ok {
		delete(l.subs, sub)
		sub.closeLocked()
	}
}

// jobEventData is the payload of a per-job lifecycle event.
type jobEventData struct {
	JobID   string `json:"job_id"`
	Status  Status `json:"status"`
	Attempt int    `json:"attempt,omitempty"`
}

// svcDelta is the payload of a service-wide ledger event: what
// changed plus the counter values after the change.
type svcDelta struct {
	Change        string `json:"change"`
	JobID         string `json:"job_id,omitempty"`
	Accepted      int64  `json:"accepted"`
	Completed     int64  `json:"completed"`
	Failed        int64  `json:"failed"`
	Queued        int64  `json:"queued"`
	Running       int64  `json:"running"`
	EventsDropped int64  `json:"events_dropped"`
}

// mustJSON marshals a payload built from plain structs; a failure is
// a programming error, and an empty payload degrades the event, not
// the job.
func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		return nil
	}
	return b
}

// publishJobEvent emits one lifecycle event on j's stream, mirrors
// ledger-relevant changes ("queued", "started", terminals) onto the
// service-wide stream, and counts any dropped subscribers. Safe to
// call with or without s.mu held: only the event logs' own locks and
// atomic counters are touched.
func (s *Server) publishJobEvent(j *job, name string, status Status, attempt int, terminal bool) {
	dropped := j.events.publish(name, mustJSON(jobEventData{JobID: j.id, Status: status, Attempt: attempt}), terminal)
	if name != "progress" && name != "retrying" {
		rep := s.stats.Snapshot(s.cfg.QueueDepth, false, 0)
		dropped += s.svcEvents.publish("ledger", mustJSON(svcDelta{
			Change:        name,
			JobID:         j.id,
			Accepted:      rep.Accepted,
			Completed:     rep.Completed,
			Failed:        rep.Failed,
			Queued:        rep.Queued,
			Running:       rep.Running,
			EventsDropped: rep.EventsDropped,
		}), false)
	}
	for i := 0; i < dropped; i++ {
		s.stats.EventDropped()
	}
}
