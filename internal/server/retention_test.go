package server

// Retention tests: a job's parsed netlist has one owner at a time —
// the queued job, then the worker that runs it — and no finished job
// keeps it, whichever terminal path it took.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"mlpart/internal/faultinject"
	"mlpart/internal/hypergraph"
	"mlpart/internal/netgen"
)

// holdsInput reports, under the server mutex, whether job id still
// holds its parsed netlist.
func holdsInput(t *testing.T, s *Server, id string) bool {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		t.Fatalf("job %s not found", id)
	}
	return j.h != nil
}

// fetch sends one request and returns its status, body and the
// X-Mlpartd-Idempotent header.
func fetch(t *testing.T, method, url string, body []byte, idemKey string) (int, []byte, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if idemKey != "" {
		req.Header.Set("Idempotency-Key", idemKey)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, bytes.TrimSpace(data), resp.Header.Get("X-Mlpartd-Idempotent")
}

// waitStatus polls job id until it reaches status want.
func waitStatus(t *testing.T, s *Server, id string, want Status) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		v, _ := s.Job(id)
		if v.Status == want {
			return
		}
		if v.Status.Terminal() || time.Now().After(deadline) {
			t.Fatalf("job %s is %s, want %s", id, v.Status, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFinishedJobReleasesInput runs one job down each terminal path —
// computed, admission-time and execution-time cache hits, failed,
// cancelled while queued and while running, deadline-exceeded,
// drained while running and while queued, and rebuilt from the
// journal — and requires that none still holds its hypergraph, while
// every read surface answers exactly as it did when the job ended.
func TestFinishedJobReleasesInput(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal")
	recHGR := testHGR(t, 5, 5)
	writeJournal(t, path, acceptedFor(t, "j-000000", 0, recHGR, "recovered"))
	at := func(seq int, kind faultinject.Kind, delay time.Duration) faultinject.Entry {
		return faultinject.Entry{Site: faultinject.SiteServerJob, Kind: kind, OnHit: 1, Delay: delay, Start: seq}
	}
	// The recovered job is submission 0, so live submissions start at 1.
	s, hs := newTestServer(t, Config{
		JournalPath:  path,
		Workers:      1,
		QueueDepth:   16,
		DrainTimeout: 50 * time.Millisecond,
		Inject: &faultinject.Plan{Seed: 1, Entries: []faultinject.Entry{
			at(3, faultinject.KindPanic, 0),
			at(4, faultinject.KindCancel, 0),
			at(5, faultinject.KindDelay, 300*time.Millisecond),
			at(6, faultinject.KindDelay, 500*time.Millisecond),
			at(10, faultinject.KindDelay, 500*time.Millisecond),
		}},
	})
	hgr := testHGR(t, 6, 6)

	type tracked struct {
		path, id string // path is also the job's Idempotency-Key
		body     []byte
		want     Status
		final    []byte // GET /v1/jobs/{id} once terminal
	}
	var jobs []*tracked
	submit := func(path string, seed int, extra map[string]any, want Status) *tracked {
		t.Helper()
		tj := &tracked{path: path, want: want,
			body: submitBody(t, hgr, 2, map[string]any{"seed": seed}, extra)}
		code, v, _ := postJobIdem(t, hs.URL, tj.body, path)
		if code != http.StatusAccepted {
			t.Fatalf("%s: submit status %d", path, code)
		}
		tj.id = v.ID
		jobs = append(jobs, tj)
		return tj
	}

	jobs = append(jobs, &tracked{path: "recovered", id: "j-000000",
		body: submitBody(t, recHGR, 2, nil, nil), want: StatusCompleted})
	waitTerminal(t, hs.URL, "j-000000")
	computed := submit("computed", 1, nil, StatusCompleted)
	waitTerminal(t, hs.URL, computed.id)
	submit("admission-hit", 1, nil, StatusCompleted)
	submit("failed", 3, nil, StatusFailed)
	submit("cancelled-running", 4, nil, StatusCancelled)
	submit("deadline-exceeded", 5, map[string]any{"timeout_ms": 50}, StatusDeadlineExceeded)
	submit("blocker", 6, nil, StatusCompleted)
	submit("computed-behind", 7, nil, StatusCompleted)
	execHit := submit("execution-hit", 7, nil, StatusCompleted)
	queued := submit("cancelled-queued", 9, nil, StatusCancelled)
	if !holdsInput(t, s, queued.id) {
		t.Fatalf("queued job %s holds no hypergraph", queued.id)
	}
	s.Cancel(queued.id)
	// ended records each job's view as it reads once the job is
	// terminal; every later read must match it.
	ended := func(tj *tracked) {
		t.Helper()
		code, data, _ := fetch(t, http.MethodGet, hs.URL+"/v1/jobs/"+tj.id+"?wait_ms=30000", nil, "")
		var v jobView
		if err := json.Unmarshal(data, &v); code != http.StatusOK || err != nil || !Status(v.Status).Terminal() {
			t.Fatalf("%s: job %s not terminal: status %d, %s", tj.path, tj.id, code, data)
		}
		if Status(v.Status) != tj.want {
			t.Errorf("%s: job %s ended %s, want %s", tj.path, tj.id, v.Status, tj.want)
		}
		tj.final = data
	}
	for _, tj := range jobs {
		ended(tj)
	}

	running := submit("drained-running", 10, nil, StatusDrained)
	drainedQueued := submit("drained-queued", 11, nil, StatusDrained)
	waitStatus(t, s, running.id, StatusRunning)
	if holdsInput(t, s, running.id) {
		t.Errorf("running job %s still holds its hypergraph: the worker did not take it", running.id)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	ended(running)
	ended(drainedQueued)

	for _, tj := range jobs {
		if holdsInput(t, s, tj.id) {
			t.Errorf("%s: finished job %s still holds its hypergraph", tj.path, tj.id)
		}
	}
	if v, _ := s.Job(execHit.id); !v.CacheHit {
		t.Errorf("execution-hit: job %s was not a cache hit", execHit.id)
	}

	for _, tj := range jobs {
		base := hs.URL + "/v1/jobs/" + tj.id
		if code, data, _ := fetch(t, http.MethodGet, base, nil, ""); code != http.StatusOK || !bytes.Equal(data, tj.final) {
			t.Errorf("%s: GET job: status %d, %s; want 200, %s", tj.path, code, data, tj.final)
		}
		var v jobView
		if err := json.Unmarshal(tj.final, &v); err != nil {
			t.Fatal(err)
		}
		code, data, _ := fetch(t, http.MethodGet, base+"/result", nil, "")
		switch {
		case v.Result != nil && (code != http.StatusOK || !bytes.Equal(data, v.Result)):
			t.Errorf("%s: GET result: status %d, %s; want 200, %s", tj.path, code, data, v.Result)
		case v.Result == nil && code != http.StatusConflict:
			t.Errorf("%s: GET result of a job with none: status %d, want 409", tj.path, code)
		}

		frames := collectEvents(t, hs.URL, tj.id, -1)
		if len(frames) == 0 || frames[len(frames)-1].Event != v.Status {
			t.Errorf("%s: event stream %v does not end with %s", tj.path, eventNames(frames), v.Status)
		} else if tail := collectEvents(t, hs.URL, tj.id, frames[len(frames)-1].ID); len(tail) != 0 {
			t.Errorf("%s: resume after the terminal event replayed %v", tj.path, eventNames(tail))
		}

		code, data, replay := fetch(t, http.MethodPost, hs.URL+"/v1/jobs", tj.body, tj.path)
		if code != http.StatusOK || replay != "replay" || !bytes.Equal(data, tj.final) {
			t.Errorf("%s: idempotent resubmission: status %d, header %q, %s; want 200, replay, %s", tj.path, code, replay, data, tj.final)
		}
		other := submitBody(t, hgr, 2, map[string]any{"seed": 999}, nil)
		if code, data, _ := fetch(t, http.MethodPost, hs.URL+"/v1/jobs", other, tj.path); code != http.StatusConflict {
			t.Errorf("%s: conflicting reuse of the key: status %d, %s; want 409", tj.path, code, data)
		}
	}
	checkLedger(t, s)
}

// TestFinishedJobRetentionBudget bounds what the job table keeps per
// finished job: its result partition (4 bytes per cell) plus 4 KiB for
// the job record, its view and its events. A finished job that kept
// its parsed netlist (about 50 bytes per cell here) breaks it.
func TestFinishedJobRetentionBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	const (
		cells  = 2000
		warmup = 4
		jobs   = 100
	)
	s, err := New(Config{Workers: 1, CacheCap: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	handler := s.Handler()
	c := netgen.MustGenerate(netgen.Spec{Name: "retention", Cells: cells, Nets: 2100, Pins: 7000, Seed: 31})
	var text bytes.Buffer
	if err := hypergraph.WriteHGR(&text, c.H); err != nil {
		t.Fatal(err)
	}
	hgr := text.String()

	run := func(seed int) {
		t.Helper()
		req := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(submitBody(t, hgr, 2, map[string]any{"seed": seed}, nil)))
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		if rec.Code != http.StatusAccepted {
			t.Fatalf("POST: status %d: %s", rec.Code, rec.Body.Bytes())
		}
		var v struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		fin, _, err := s.WaitJob(ctx, v.ID)
		if err != nil || fin.Status != StatusCompleted {
			t.Fatalf("job %s: %v, status %s", v.ID, err, fin.Status)
		}
	}
	heap := func() int64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}

	// Warm-up: the worker's Session grows to this instance first.
	for i := 0; i < warmup; i++ {
		run(i)
	}
	before := heap()
	for i := 0; i < jobs; i++ {
		run(warmup + i)
	}
	perJob := (heap() - before) / jobs
	limit := int64(4*cells + 4<<10)
	t.Logf("%d finished %d-cell jobs: %d bytes retained per job (limit %d)", jobs, cells, perJob, limit)
	if perJob > limit {
		t.Errorf("each finished job retains %d bytes, want ≤ %d (4 B × %d cells + 4 KiB)", perJob, limit, cells)
	}
}

// TestCancelRacesWorkerStart cancels queued jobs and starts a Drain
// while two workers are dequeuing, so the worker's handoff of the
// parsed netlist races finishLocked's clear; under -race this checks
// that both happen under the server mutex. Every accepted job must
// still end terminal, without its netlist, with the ledger balanced.
func TestCancelRacesWorkerStart(t *testing.T) {
	s, err := New(Config{Workers: 2, QueueDepth: 64, CacheCap: -1, DrainTimeout: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	handler := s.Handler()
	hgr := testHGR(t, 12, 12)

	toCancel := make(chan string, 64)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for id := range toCancel {
			s.Cancel(id)
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	drainErr := make(chan error, 1)
	var ids []string
	for i := 0; i < 48; i++ {
		if i == 32 {
			go func() { drainErr <- s.Drain(ctx) }()
		}
		req := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(submitBody(t, hgr, 2, map[string]any{"seed": i}, nil)))
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		if rec.Code != http.StatusAccepted {
			continue // refused once the drain has begun
		}
		var v struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, v.ID)
		if i%2 == 0 {
			toCancel <- v.ID
		}
	}
	close(toCancel)
	wg.Wait()
	if err := <-drainErr; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	ended := map[Status]int{}
	for _, id := range ids {
		v, _ := s.Job(id)
		if !v.Status.Terminal() {
			t.Errorf("job %s is %s after the drain", id, v.Status)
		}
		ended[v.Status]++
		if holdsInput(t, s, id) {
			t.Errorf("finished job %s still holds its hypergraph", id)
		}
	}
	t.Logf("%d jobs accepted, ended %v", len(ids), ended)
	checkLedger(t, s)
}
