package server

// Protocol tests for the per-job SSE event stream: exact lifecycle order,
// Last-Event-ID resume, the drop-don't-block rule for stalled
// subscribers, and a fuzz target on the frame parser the stream
// clients use.

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"mlpart/internal/faultinject"
)

// collectEvents reads one job's full SSE stream (it ends after the
// terminal event) and parses it.
func collectEvents(t *testing.T, base, id string, lastID int64) []SSEFrame {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		t.Fatalf("build request: %v", err)
	}
	if lastID >= 0 {
		req.Header.Set("Last-Event-ID", strconv.FormatInt(lastID, 10))
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET events %s: %v", id, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET events %s: status %d", id, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("GET events %s: Content-Type %q", id, ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read events %s: %v", id, err)
	}
	return ParseSSE(raw)
}

// eventNames projects the frames onto their event names.
func eventNames(frames []SSEFrame) []string {
	names := make([]string, len(frames))
	for i, f := range frames {
		names[i] = f.Event
	}
	return names
}

// TestSSEEventOrder asserts the exact stream for a clean job under
// the default event settings: queued, started, completed with gapless
// ids from 1 and nothing else — identical whether the consumer
// attached live or replays after the fact.
func TestSSEEventOrder(t *testing.T) {
	_, hs := newTestServer(t, Config{CacheCap: -1})
	hgr := testHGR(t, 6, 6)
	_, v, _ := postJob(t, hs.URL, submitBody(t, hgr, 2, map[string]any{"seed": int64(1)}, nil))
	waitTerminal(t, hs.URL, v.ID)

	frames := collectEvents(t, hs.URL, v.ID, -1)
	want := []string{"queued", "started", "completed"}
	if got := eventNames(frames); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("event order %v, want %v", got, want)
	}
	for i, f := range frames {
		if f.ID != int64(i+1) {
			t.Errorf("frame %d: id %d, want %d", i, f.ID, i+1)
		}
		var data struct {
			JobID  string `json:"job_id"`
			Status string `json:"status"`
		}
		if err := json.Unmarshal([]byte(f.Data), &data); err != nil {
			t.Errorf("frame %d data: %v: %s", i, err, f.Data)
			continue
		}
		if data.JobID != v.ID {
			t.Errorf("frame %d: job_id %q, want %q", i, data.JobID, v.ID)
		}
	}
}

// TestSSEFailedJobEvents arms a panic at the job site: the job runs
// once, and its stream is exactly queued, started, failed — no retry
// event, and no attempt field in any payload.
func TestSSEFailedJobEvents(t *testing.T) {
	_, hs := newTestServer(t, Config{
		CacheCap: -1,
		Inject: &faultinject.Plan{Seed: 1, Entries: []faultinject.Entry{
			faultinject.On(faultinject.SiteServerJob, faultinject.KindPanic, 1),
		}},
	})
	hgr := testHGR(t, 6, 6)
	_, v, _ := postJob(t, hs.URL, submitBody(t, hgr, 2, map[string]any{"seed": int64(2)}, nil))
	if fin := waitTerminal(t, hs.URL, v.ID); fin.Error == nil || fin.Error.Code != "internal" {
		t.Fatalf("job error = %+v, want code internal", fin.Error)
	}

	frames := collectEvents(t, hs.URL, v.ID, -1)
	want := []string{"queued", "started", "failed"}
	if got := eventNames(frames); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("event order %v, want %v", got, want)
	}
	for i, f := range frames {
		if f.ID != int64(i+1) {
			t.Errorf("frame %d: id %d, want %d", i, f.ID, i+1)
		}
		if strings.Contains(f.Data, "attempt") {
			t.Errorf("frame %d data carries an attempt: %s", i, f.Data)
		}
	}
}

// TestSSELastEventIDResume checks resume semantics: a reconnect with
// Last-Event-ID replays exactly the events after that id, a resume
// past the end is an empty (but well-formed) stream, and a malformed
// id is a 400.
func TestSSELastEventIDResume(t *testing.T) {
	_, hs := newTestServer(t, Config{CacheCap: -1})
	hgr := testHGR(t, 6, 6)
	_, v, _ := postJob(t, hs.URL, submitBody(t, hgr, 2, map[string]any{"seed": int64(3)}, nil))
	waitTerminal(t, hs.URL, v.ID)

	full := collectEvents(t, hs.URL, v.ID, -1)
	if len(full) != 3 {
		t.Fatalf("full stream has %d frames, want 3", len(full))
	}

	resumed := collectEvents(t, hs.URL, v.ID, full[0].ID)
	if len(resumed) != 2 || resumed[0].ID != full[0].ID+1 {
		t.Fatalf("resume after id %d: %d frames starting at %d, want 2 starting at %d",
			full[0].ID, len(resumed), resumed[0].ID, full[0].ID+1)
	}
	for i, f := range resumed {
		if f != full[i+1] {
			t.Errorf("resumed frame %d = %+v, want %+v", i, f, full[i+1])
		}
	}

	if tail := collectEvents(t, hs.URL, v.ID, full[len(full)-1].ID); len(tail) != 0 {
		t.Errorf("resume past the end replayed %d frames, want 0", len(tail))
	}

	req, _ := http.NewRequest(http.MethodGet, hs.URL+"/v1/jobs/"+v.ID+"/events", nil)
	req.Header.Set("Last-Event-ID", "banana")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed Last-Event-ID: status %d, want 400", resp.StatusCode)
	}
}

// TestSSEStalledSubscriberDropped asserts the drop-don't-block rule
// at the server layer: a subscriber that never drains its buffer is
// disconnected, events_dropped increments, and the job completes
// promptly — publishing never waits on a slow consumer.
func TestSSEStalledSubscriberDropped(t *testing.T) {
	// Job 0 holds the only worker in an injected ~1s delay, so job 1
	// is still queued when the subscriber attaches: its queued event
	// is replayed, and the two lifecycle events still to come
	// (started, completed) overflow a one-slot buffer that is never
	// drained, whatever the attach timing.
	s, hs := newTestServer(t, Config{
		CacheCap: -1, Workers: 1,
		Inject: &faultinject.Plan{Seed: 1, Entries: []faultinject.Entry{{
			Site: faultinject.SiteServerJob, Kind: faultinject.KindDelay,
			OnHit: 1, Delay: time.Second, Start: 0,
		}}},
	})
	hgr := testHGR(t, 6, 6)
	postJob(t, hs.URL, submitBody(t, hgr, 2, map[string]any{"seed": int64(4)}, nil))
	_, v, _ := postJob(t, hs.URL, submitBody(t, hgr, 2, map[string]any{"seed": int64(5)}, nil))

	// White-box: subscribe directly to the job's event log with a
	// one-slot buffer and never read it. The HTTP path cannot starve
	// reliably in-process (kernel socket buffers absorb small writes),
	// so the drop rule is asserted at the layer that owns it.
	s.mu.Lock()
	j := s.jobs[v.ID]
	s.mu.Unlock()
	if j == nil {
		t.Fatalf("job %s not found", v.ID)
	}
	replay, sub := j.events.subscribe(0, 1)
	if sub == nil {
		t.Fatalf("job already terminal before subscribe (replayed %d events)", len(replay))
	}
	if len(replay) != 1 || replay[0].name != "queued" {
		t.Fatalf("replayed %d events at subscribe, want only queued: the job was not held in the queue", len(replay))
	}

	start := time.Now()
	fin := waitTerminal(t, hs.URL, v.ID)
	if fin.Status != string(StatusCompleted) {
		t.Fatalf("job ended %q, want completed", fin.Status)
	}
	if elapsed := time.Since(start); elapsed > 20*time.Second {
		t.Fatalf("job took %v with a stalled subscriber attached", elapsed)
	}

	// started fills the one-slot buffer; completed finds it full, so
	// the subscriber is dropped and disconnected.
	if got := s.Stats().EventsDropped; got != 1 {
		t.Errorf("events_dropped = %d, want 1", got)
	}
	select {
	case _, ok := <-sub.ch:
		if ok {
			// Drained the buffered frame; the channel must now be closed.
			if _, ok := <-sub.ch; ok {
				t.Errorf("stalled subscriber channel still open after drop")
			}
		}
	case <-time.After(5 * time.Second):
		t.Errorf("stalled subscriber channel neither closed nor readable")
	}
}

// FuzzParseSSE fuzzes the stream parser: it must never panic, and
// serialization must converge — re-serializing the parse of a
// serialized stream reproduces it byte for byte (one normalization
// round is allowed for frames that have no serializable fields).
func FuzzParseSSE(f *testing.F) {
	f.Add("id: 1\nevent: queued\ndata: {\"job_id\":\"j-0\"}\n\n")
	f.Add("data: a\ndata: b\n\nevent: x\n\n")
	f.Add(": comment\r\nid: -3\ndata:\n\n")
	f.Add("id: 9\n")                 // trailing incomplete block
	f.Add("bogus line\nevent:y\n\n") // unknown field, no space after colon

	serialize := func(frames []SSEFrame) string {
		var b strings.Builder
		for _, fr := range frames {
			_ = writeSSE(&b, fr.ID, fr.Event, []byte(fr.Data)) // Builder writes cannot fail
		}
		return b.String()
	}

	f.Fuzz(func(t *testing.T, input string) {
		// Each non-converged round strictly shrinks the stream (frames
		// with no serializable field are dropped, stray '\r's are
		// normalized), so a fixpoint must appear within len(input)+2
		// rounds.
		cur := serialize(ParseSSE([]byte(input)))
		for i := 0; i <= len(input)+2; i++ {
			next := serialize(ParseSSE([]byte(cur)))
			if next == cur {
				return
			}
			if len(next) > len(cur) {
				t.Fatalf("round %d grew the stream: %q -> %q", i, cur, next)
			}
			cur = next
		}
		t.Fatalf("serialization never converged for %q (stuck at %q)", input, cur)
	})
}
