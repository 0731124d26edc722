package server

// Live event streaming. Every job owns an eventLog — a monotonically
// numbered history of its lifecycle events (queued, started, then
// exactly one terminal event); it is the only event surface, and
// /statsz is the only view of the ledger. The cardinal rule is that a
// subscriber can never hold up a job: publish is non-blocking, and a
// subscriber whose buffer is full is dropped (counted in
// events_dropped) instead of waited on. The bounded history makes
// Last-Event-ID resume work without unbounded memory.

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
// no-ops, so a finished stream is never resurrected.
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
	JobID  string `json:"job_id"`
	Status Status `json:"status"`
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

// publishJobEvent emits one lifecycle event on j's stream and counts
// any dropped subscribers. Safe to call with or without s.mu held:
// only the event log's own lock and atomic counters are touched.
func (s *Server) publishJobEvent(j *job, name string, status Status, terminal bool) {
	dropped := j.events.publish(name, mustJSON(jobEventData{JobID: j.id, Status: status}), terminal)
	for i := 0; i < dropped; i++ {
		s.stats.EventDropped()
	}
}
