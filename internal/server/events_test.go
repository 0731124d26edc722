package server

// Protocol tests for the per-job SSE event stream: the exact stream of
// every lifecycle path, Last-Event-ID resume on finished and live jobs,
// that an unread stream never holds up its job, the server.events
// cancel cut, and a fuzz target on the frame parser the stream clients
// use.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"mlpart/internal/faultinject"
	"mlpart/internal/journal"
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
	return parseSSE(raw)
}

// parseSSE parses a complete byte stream into its dispatched frames.
func parseSSE(b []byte) []SSEFrame {
	var p SSEParser
	var frames []SSEFrame
	for _, line := range strings.Split(string(b), "\n") {
		if f, ok := p.Line(line); ok {
			frames = append(frames, f)
		}
	}
	return frames
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

// lifecycleFrames is the exact stream of job id through the named
// events: gapless ids from 1, each payload the job id and the status
// the event reports.
func lifecycleFrames(id string, events ...string) []SSEFrame {
	frames := make([]SSEFrame, len(events))
	for i, ev := range events {
		st := ev
		switch ev {
		case "queued":
			st = string(StatusQueued)
		case "started":
			st = string(StatusRunning)
		}
		frames[i] = SSEFrame{ID: int64(i + 1), Event: ev,
			Data: fmt.Sprintf(`{"job_id":%q,"status":%q}`, id, st)}
	}
	return frames
}

// TestSSELifecyclePaths pins the stream of every lifecycle path — the
// event names, the gapless ids from 1 and the payload bytes — and
// requires a resume from each id to give exactly the frames after it.
func TestSSELifecyclePaths(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal")
	recHGR := testHGR(t, 5, 5)
	tomb := acceptedFor(t, "j-000001", 1, recHGR, "")
	writeJournal(t, path,
		acceptedFor(t, "j-000000", 0, recHGR, ""),
		tomb,
		journal.Record{Type: journal.TypeTerminal, ID: tomb.ID, Seq: tomb.Seq, Status: string(StatusCompleted)})
	at := func(seq int, kind faultinject.Kind, delay time.Duration) faultinject.Entry {
		return faultinject.Entry{Site: faultinject.SiteServerJob, Kind: kind, OnHit: 1, Delay: delay, Start: seq}
	}
	// The journal holds submissions 0 and 1, so live ones start at 2.
	s, hs := newTestServer(t, Config{
		JournalPath:  path,
		Workers:      1,
		QueueDepth:   16,
		DrainTimeout: 50 * time.Millisecond,
		Inject: &faultinject.Plan{Seed: 1, Entries: []faultinject.Entry{
			at(4, faultinject.KindCancel, 0),
			at(5, faultinject.KindDelay, 300*time.Millisecond),
			at(6, faultinject.KindDelay, 500*time.Millisecond),
			at(10, faultinject.KindDelay, 500*time.Millisecond),
		}},
	})
	hgr := testHGR(t, 6, 6)

	type lifecycle struct {
		path   string
		id     string
		events []string
	}
	paths := []*lifecycle{
		{path: "recovered", id: "j-000000", events: []string{"queued", "started", "completed"}},
		{path: "tombstone", id: "j-000001", events: []string{"completed"}},
	}
	submit := func(path string, seed int, extra map[string]any, events ...string) *lifecycle {
		t.Helper()
		code, v, data := postJob(t, hs.URL, submitBody(t, hgr, 2, map[string]any{"seed": seed}, extra))
		if code != http.StatusAccepted {
			t.Fatalf("%s: submit status %d: %s", path, code, data)
		}
		lc := &lifecycle{path: path, id: v.ID, events: events}
		paths = append(paths, lc)
		return lc
	}
	computed := submit("computed", 1, nil, "queued", "started", "completed")
	waitTerminal(t, hs.URL, computed.id)
	submit("admission-hit", 1, nil, "queued", "completed")
	submit("cancelled-running", 4, nil, "queued", "started", "cancelled")
	submit("deadline-exceeded", 5, map[string]any{"timeout_ms": 50}, "queued", "started", "deadline-exceeded")
	submit("blocker", 6, nil, "queued", "started", "completed")
	submit("execution-miss", 7, nil, "queued", "started", "completed")
	execHit := submit("execution-hit", 7, nil, "queued", "started", "completed")
	queued := submit("cancelled-queued", 9, nil, "queued", "cancelled")
	s.Cancel(queued.id)
	for _, lc := range paths {
		waitTerminal(t, hs.URL, lc.id)
	}
	if v, _ := s.Job(execHit.id); !v.CacheHit {
		t.Fatalf("execution-hit: job %s was not a cache hit", execHit.id)
	}
	running := submit("drained-running", 10, nil, "queued", "started", "drained")
	submit("drained-queued", 11, nil, "queued", "drained")
	waitStatus(t, s, running.id, StatusRunning)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}

	for _, lc := range paths {
		want := lifecycleFrames(lc.id, lc.events...)
		if got := collectEvents(t, hs.URL, lc.id, -1); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: stream\n%+v\nwant\n%+v", lc.path, got, want)
		}
		for last := range want {
			got := collectEvents(t, hs.URL, lc.id, int64(last))
			if !reflect.DeepEqual(got, want[last:]) {
				t.Errorf("%s: resume after id %d gave %+v, want %+v", lc.path, last, got, want[last:])
			}
		}
		if tail := collectEvents(t, hs.URL, lc.id, int64(len(want))); len(tail) != 0 {
			t.Errorf("%s: resume after the terminal event gave %+v", lc.path, tail)
		}
	}
	checkLedger(t, s)
}

// holdQueued starts a one-worker server whose submission 0 holds the
// worker in an injected one-second delay, plus extra fault entries,
// and returns it with the id of submission 1, queued behind it.
func holdQueued(t *testing.T, extra ...faultinject.Entry) (*Server, *httptest.Server, string) {
	t.Helper()
	s, hs := newTestServer(t, Config{
		CacheCap: -1, Workers: 1,
		Inject: &faultinject.Plan{Seed: 1, Entries: append([]faultinject.Entry{{
			Site: faultinject.SiteServerJob, Kind: faultinject.KindDelay,
			OnHit: 1, Delay: time.Second, Start: 0,
		}}, extra...)},
	})
	hgr := testHGR(t, 6, 6)
	postJob(t, hs.URL, submitBody(t, hgr, 2, map[string]any{"seed": int64(4)}, nil))
	_, v, _ := postJob(t, hs.URL, submitBody(t, hgr, 2, map[string]any{"seed": int64(5)}, nil))
	return s, hs, v.ID
}

// openEvents opens a job's stream and returns the response once its
// headers arrive, without reading the body.
func openEvents(t *testing.T, base, id string, lastID int64) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastID >= 0 {
		req.Header.Set("Last-Event-ID", strconv.FormatInt(lastID, 10))
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET events %s: %v", id, err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET events %s: status %d", id, resp.StatusCode)
	}
	return resp
}

// TestSSEUnreadStreamNeverBlocksJob opens the stream of a queued job
// and reads nothing while the job runs: the job still completes
// promptly, the stream read afterwards is the whole lifecycle, and
// nothing counts as dropped.
func TestSSEUnreadStreamNeverBlocksJob(t *testing.T) {
	s, hs, id := holdQueued(t)
	resp := openEvents(t, hs.URL, id, -1)
	if v, _ := s.Job(id); v.Status != StatusQueued {
		t.Fatalf("job %s is %s with its stream open, want queued", id, v.Status)
	}

	start := time.Now()
	if fin := waitTerminal(t, hs.URL, id); fin.Status != string(StatusCompleted) {
		t.Fatalf("job ended %q, want completed", fin.Status)
	}
	if elapsed := time.Since(start); elapsed > 20*time.Second {
		t.Fatalf("job took %v with an unread stream open", elapsed)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read events: %v", err)
	}
	if got, want := parseSSE(raw), lifecycleFrames(id, "queued", "started", "completed"); !reflect.DeepEqual(got, want) {
		t.Errorf("stream %+v, want %+v", got, want)
	}
	if got := s.Stats().EventsDropped; got != 0 {
		t.Errorf("events_dropped = %d, want 0", got)
	}
}

// TestSSELastEventIDFiltersLiveEvents resumes the stream of a queued
// job after id 2: started (id 2) arrives live, and like every event at
// or below Last-Event-ID it must not be written; the terminal event
// (id 3) is the whole stream.
func TestSSELastEventIDFiltersLiveEvents(t *testing.T) {
	s, hs, id := holdQueued(t)
	resp := openEvents(t, hs.URL, id, 2)
	if v, _ := s.Job(id); v.Status != StatusQueued {
		t.Fatalf("job %s is %s with its stream open, want queued", id, v.Status)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read events: %v", err)
	}
	want := lifecycleFrames(id, "queued", "started", "completed")[2:]
	if got := parseSSE(raw); !reflect.DeepEqual(got, want) {
		t.Errorf("resume after id 2 of a live job gave %+v, want %+v", got, want)
	}
}

// TestSSEEventsCancelCutsLiveStream arms a cancel at server.events for
// a job held in the queue: its live stream ends after the events so
// far (queued) and counts one in events_dropped, while the job runs on
// unaffected. Once the job is terminal the same cancel cuts nothing:
// the stream is complete and the count stays 1.
func TestSSEEventsCancelCutsLiveStream(t *testing.T) {
	s, hs, id := holdQueued(t, faultinject.Entry{
		Site: faultinject.SiteServerEvents, Kind: faultinject.KindCancel, OnHit: 1, Start: 1,
	})
	resp := openEvents(t, hs.URL, id, -1)
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read events: %v", err)
	}
	all := lifecycleFrames(id, "queued", "started", "completed")
	if got := parseSSE(raw); !reflect.DeepEqual(got, all[:1]) {
		t.Errorf("cut stream %+v, want %+v", got, all[:1])
	}
	if got := s.Stats().EventsDropped; got != 1 {
		t.Errorf("events_dropped = %d after the cut, want 1", got)
	}

	if fin := waitTerminal(t, hs.URL, id); fin.Status != string(StatusCompleted) {
		t.Fatalf("job ended %q, want completed", fin.Status)
	}
	if got := collectEvents(t, hs.URL, id, -1); !reflect.DeepEqual(got, all) {
		t.Errorf("stream of the finished job %+v, want %+v", got, all)
	}
	if got := s.Stats().EventsDropped; got != 1 {
		t.Errorf("events_dropped = %d after the finished job's stream, want 1", got)
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
		cur := serialize(parseSSE([]byte(input)))
		for i := 0; i <= len(input)+2; i++ {
			next := serialize(parseSSE([]byte(cur)))
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
