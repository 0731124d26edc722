package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mlpart"
	"mlpart/internal/faultinject"
	"mlpart/internal/hypergraph"
	"mlpart/internal/netgen"
)

// testHGR returns a deterministic mesh netlist in hMETIS text form.
func testHGR(t *testing.T, w, h int) string {
	t.Helper()
	g, err := netgen.GenerateMesh(netgen.MeshSpec{Width: w, Height: h})
	if err != nil {
		t.Fatalf("GenerateMesh: %v", err)
	}
	var buf bytes.Buffer
	if err := hypergraph.WriteHGR(&buf, g); err != nil {
		t.Fatalf("WriteHGR: %v", err)
	}
	return buf.String()
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		_ = s.Close()
	})
	return s, hs
}

// submitBody builds a POST /v1/jobs document.
func submitBody(t *testing.T, hgr string, k int, options map[string]any, extra map[string]any) []byte {
	t.Helper()
	doc := map[string]any{"hgr": hgr, "k": k}
	if options != nil {
		doc["options"] = options
	}
	for kk, vv := range extra {
		doc[kk] = vv
	}
	b, err := json.Marshal(doc)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return b
}

type jobView struct {
	ID          string          `json:"id"`
	Status      string          `json:"status"`
	CacheHit    bool            `json:"cache_hit"`
	Interrupted bool            `json:"interrupted"`
	Recovered   bool            `json:"recovered"`
	Error       *ErrorReport    `json:"error"`
	Result      json.RawMessage `json:"result"`
	Stats       json.RawMessage `json:"stats"`
}

func postJob(t *testing.T, base string, body []byte) (int, jobView, []byte) {
	t.Helper()
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	var v jobView
	if resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(data, &v); err != nil {
			t.Fatalf("unmarshal job view: %v: %s", err, data)
		}
	}
	return resp.StatusCode, v, data
}

func waitTerminal(t *testing.T, base, id string) jobView {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "?wait_ms=30000")
	if err != nil {
		t.Fatalf("GET job %s: %v", id, err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	var v jobView
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatalf("unmarshal job view: %v: %s", err, data)
	}
	if !Status(v.Status).Terminal() {
		t.Fatalf("job %s still %q after wait", id, v.Status)
	}
	return v
}

func getResult(t *testing.T, base, id string) ([]byte, string) {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatalf("GET result %s: %v", id, err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read result: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET result %s: %s: %s", id, resp.Status, data)
	}
	return data, resp.Header.Get("X-Mlpartd-Cache")
}

// checkLedger asserts the no-lost-jobs accounting invariant on a
// quiesced server: accepted == terminals, nothing queued or running.
func checkLedger(t *testing.T, s *Server) {
	t.Helper()
	rep := s.Stats()
	terminals := rep.Completed + rep.Failed + rep.Cancelled + rep.DeadlineExceeded + rep.Drained
	if rep.Queued != 0 || rep.Running != 0 {
		t.Errorf("quiesced server has queued %d, running %d", rep.Queued, rep.Running)
	}
	if rep.Accepted != terminals {
		t.Errorf("ledger violated: accepted %d != terminals %d (%+v)", rep.Accepted, terminals, rep)
	}
	if rep.EventsDropped < 0 {
		t.Errorf("ledger violated: negative events_dropped %d", rep.EventsDropped)
	}
}

func TestSubmitCompleteAndResult(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	hgr := testHGR(t, 8, 8)
	code, v, data := postJob(t, hs.URL, submitBody(t, hgr, 2, map[string]any{"seed": 7}, nil))
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", code, data)
	}
	if v.Status != string(StatusQueued) && v.Status != string(StatusCompleted) {
		t.Fatalf("fresh job status %q", v.Status)
	}
	fin := waitTerminal(t, hs.URL, v.ID)
	if fin.Status != string(StatusCompleted) {
		t.Fatalf("job ended %q: %+v", fin.Status, fin)
	}
	if fin.CacheHit {
		t.Fatalf("first submission reported a cache hit")
	}
	res, cache := getResult(t, hs.URL, v.ID)
	if cache != "miss" {
		t.Fatalf("X-Mlpartd-Cache = %q, want miss", cache)
	}
	var doc Result
	if err := json.Unmarshal(res, &doc); err != nil {
		t.Fatalf("result doc: %v", err)
	}
	if doc.K != 2 || len(doc.Partition) != 64 || doc.Cut <= 0 {
		t.Fatalf("result doc shape: k %d, %d cells, cut %d", doc.K, len(doc.Partition), doc.Cut)
	}
	if doc.ContentHash == "" || doc.Fingerprint == "" {
		t.Fatalf("result doc missing provenance: %+v", doc)
	}
}

// TestSubmitReplyShowsAdmittedState stresses the POST /v1/jobs reply:
// it is a snapshot taken under the lock that admits the job, so
// however fast a worker picks a tiny job up, every 202 reads "queued",
// or "completed" when the result cache answered at admission.
func TestSubmitReplyShowsAdmittedState(t *testing.T) {
	_, hs := newTestServer(t, Config{QueueDepth: 256})
	hgr := testHGR(t, 3, 3)
	const clients, perClient = 4, 60
	var wg sync.WaitGroup
	ids := make(chan string, clients*perClient)
	bad := make(chan string, clients*perClient)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				seed := c*perClient + i
				if i%4 == 3 {
					seed-- // resubmit the previous job: a cache hit once it has finished
				}
				body, err := json.Marshal(map[string]any{"hgr": hgr, "k": 2, "options": map[string]any{"seed": seed}})
				if err != nil {
					bad <- err.Error()
					return
				}
				resp, err := http.Post(hs.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
				if err != nil {
					bad <- err.Error()
					return
				}
				var v jobView
				err = json.NewDecoder(resp.Body).Decode(&v)
				resp.Body.Close()
				switch {
				case err != nil:
					bad <- fmt.Sprintf("job %d: decode reply: %v", seed, err)
				case resp.StatusCode != http.StatusAccepted:
					bad <- fmt.Sprintf("job %d: status %d", seed, resp.StatusCode)
				case v.Status != string(StatusQueued) && v.Status != string(StatusCompleted):
					bad <- fmt.Sprintf("job %s: 202 reads %q", v.ID, v.Status)
				default:
					ids <- v.ID
				}
			}
		}(c)
	}
	wg.Wait()
	close(ids)
	close(bad)
	for msg := range bad {
		t.Error(msg)
	}
	n := 0
	for id := range ids {
		if fin := waitTerminal(t, hs.URL, id); fin.Status != string(StatusCompleted) {
			t.Errorf("job %s ended %q", id, fin.Status)
		}
		n++
	}
	if n != clients*perClient {
		t.Errorf("%d of %d submissions admitted", n, clients*perClient)
	}
}

func TestBadSubmissions(t *testing.T) {
	s, hs := newTestServer(t, Config{})
	_ = s
	hgr := testHGR(t, 4, 4)
	// A bad k is refused with the entry point's own error.
	badK := mlpart.Options{}.Validate(3)
	if badK == nil || badK.Error() != "mlpart: k must be 2 or 4, got 3" {
		t.Fatalf("Validate(3) = %v", badK)
	}
	cases := []struct {
		name string
		body string
	}{
		{"bad json", `{"hgr": `},
		{"unknown field", `{"hgr": "x", "bogus": 1}`},
		{"bad k", fmt.Sprintf(`{"hgr": %q, "k": 3}`, hgr)},
		{"missing hgr", `{"k": 2}`},
		{"bad hgr", `{"hgr": "not a netlist"}`},
		{"bad options", fmt.Sprintf(`{"hgr": %q, "options": {"starts": -2}}`, hgr)},
		{"unknown option", fmt.Sprintf(`{"hgr": %q, "options": {"bogus": 1}}`, hgr)},
		{"negative timeout", fmt.Sprintf(`{"hgr": %q, "timeout_ms": -5}`, hgr)},
		{"huge timeout", fmt.Sprintf(`{"hgr": %q, "timeout_ms": 99999999999}`, hgr)},
		{"timeout wrapping negative", fmt.Sprintf(`{"hgr": %q, "timeout_ms": 9223372036855}`, hgr)},
		{"timeout wrapping to microseconds", fmt.Sprintf(`{"hgr": %q, "timeout_ms": 18446744073710}`, hgr)},
	}
	for _, tc := range cases {
		resp, err := http.Post(hs.URL+"/v1/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", tc.name, resp.StatusCode, data)
		}
		var eb struct {
			Error struct {
				Code    string `json:"code"`
				Message string `json:"message"`
			} `json:"error"`
		}
		if err := json.Unmarshal(data, &eb); err != nil || eb.Error.Code == "" {
			t.Errorf("%s: unstructured error body: %s", tc.name, data)
		}
		if tc.name == "bad k" && eb.Error.Message != badK.Error() {
			t.Errorf("bad k: message %q, want %q", eb.Error.Message, badK)
		}
	}
	if rep := s.Stats(); rep.Invalid != int64(len(cases)) {
		t.Errorf("invalid counter = %d, want %d", rep.Invalid, len(cases))
	}
}

// TestUnrunnableOptionsRejected submits options that decode but that
// the entry point for k cannot run. Each must be refused at admission
// with a 400 counted in invalid and never journaled, and the library
// entry point must return the same error before any start runs.
func TestUnrunnableOptionsRejected(t *testing.T) {
	var appends atomic.Int64
	s, hs := newTestServer(t, Config{
		JournalPath:       filepath.Join(t.TempDir(), "jobs.wal"),
		JournalAppendHook: func(int) { appends.Add(1) },
	})
	hgr := testHGR(t, 4, 4)
	h, err := hypergraph.ReadHGRText([]byte(hgr), hypergraph.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	both := []int{2, 4}
	cases := []struct {
		name    string
		options map[string]any
		ks      []int
		want    string
	}{
		{"tolerance 1.5", map[string]any{"tolerance": 1.5}, both, "tolerance"},
		{"tolerance -0.1", map[string]any{"tolerance": -0.1}, both, "tolerance"},
		{"threshold 1", map[string]any{"threshold": 1}, both, "threshold"},
		{"threshold -5", map[string]any{"threshold": -5}, both, "threshold"},
		{"matching ratio 2", map[string]any{"matching_ratio": 2}, both, "matching ratio"},
		{"engine prop", map[string]any{"engine": "prop"}, []int{4}, "PROP is bipartition-only"},
		{"engine clprop", map[string]any{"engine": "clprop"}, []int{4}, "CL-PR is bipartition-only"},
	}
	invalid := 0
	for _, tc := range cases {
		for _, k := range tc.ks {
			name := fmt.Sprintf("%s k=%d", tc.name, k)
			code, _, data := postJob(t, hs.URL, submitBody(t, hgr, k, tc.options, nil))
			var eb errorBody
			if err := json.Unmarshal(data, &eb); err != nil || code != http.StatusBadRequest || eb.Error.Code != "bad_request" {
				t.Errorf("%s: status %d, want 400 bad_request: %s", name, code, data)
			} else {
				invalid++
			}

			raw, err := json.Marshal(tc.options)
			if err != nil {
				t.Fatal(err)
			}
			opt, err := mlpart.ParseOptionsJSON(raw)
			if err != nil {
				t.Fatalf("%s: options do not decode: %v", name, err)
			}
			opt.Starts = 3
			entry := mlpart.Bipartition
			if k == 4 {
				entry = mlpart.Quadrisect
			}
			p, info, err := entry(h, opt)
			switch {
			case err == nil || p != nil:
				t.Errorf("%s: library returned partition %v, error %v; want only an error", name, p != nil, err)
			case info.StartReports != nil:
				t.Errorf("%s: library ran %d starts before refusing", name, len(info.StartReports))
			case !strings.Contains(err.Error(), tc.want):
				t.Errorf("%s: library error %q does not name %q", name, err, tc.want)
			case code == http.StatusBadRequest && err.Error() != eb.Error.Message:
				t.Errorf("%s: library error %q, admission %q", name, err, eb.Error.Message)
			}
		}
	}
	if rep := s.Stats(); rep.Invalid != int64(invalid) || rep.Accepted != 0 {
		t.Errorf("ledger: invalid %d accepted %d, want %d and 0", rep.Invalid, rep.Accepted, invalid)
	}
	if n := appends.Load(); n != 0 {
		t.Errorf("refused submissions made %d journal appends, want 0", n)
	}
}

// TestStartsAboveBoundRejected submits starts one above
// mlpart.MaxStarts: admission must answer 400 bad_request naming
// starts, count it invalid, and journal nothing, so the request can
// neither size a run's per-start state nor be replayed after a
// restart.
func TestStartsAboveBoundRejected(t *testing.T) {
	var appends atomic.Int64
	s, hs := newTestServer(t, Config{
		JournalPath:       filepath.Join(t.TempDir(), "jobs.wal"),
		JournalAppendHook: func(int) { appends.Add(1) },
	})
	hgr := testHGR(t, 4, 4)
	for _, k := range []int{2, 4} {
		code, _, data := postJob(t, hs.URL, submitBody(t, hgr, k,
			map[string]any{"starts": mlpart.MaxStarts + 1, "parallelism": 1}, nil))
		var eb errorBody
		if err := json.Unmarshal(data, &eb); err != nil || code != http.StatusBadRequest ||
			eb.Error.Code != "bad_request" || !strings.Contains(eb.Error.Message, "starts") {
			t.Errorf("k=%d: status %d, want 400 bad_request naming starts: %s", k, code, data)
		}
	}
	if rep := s.Stats(); rep.Invalid != 2 || rep.Accepted != 0 {
		t.Errorf("ledger: invalid %d accepted %d, want 2 and 0", rep.Invalid, rep.Accepted)
	}
	if n := appends.Load(); n != 0 {
		t.Errorf("refused submissions made %d journal appends, want 0", n)
	}
}

// TestQueueFullSheds fills the admission queue behind a deliberately
// slowed worker and asserts the burst is shed with structured 429s
// carrying Retry-After, while every accepted job still terminates.
func TestQueueFullSheds(t *testing.T) {
	s, hs := newTestServer(t, Config{
		Workers:    1,
		QueueDepth: 2,
		CacheCap:   -1,
		// Hold each job in its attempt long enough for the burst to
		// pile up behind the single worker.
		Inject: &faultinject.Plan{Entries: []faultinject.Entry{{
			Site: faultinject.SiteServerJob, Kind: faultinject.KindDelay,
			OnHit: 1, Delay: 300 * time.Millisecond, Start: faultinject.AnyStart,
		}}},
	})
	hgr := testHGR(t, 4, 4)

	var ids []string
	var rejected int
	var sawRetryAfter bool
	for i := 0; i < 12; i++ {
		body := submitBody(t, hgr, 2, map[string]any{"seed": int64(i)}, nil)
		resp, err := http.Post(hs.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusAccepted:
			var v jobView
			if err := json.Unmarshal(data, &v); err != nil {
				t.Fatalf("job view: %v", err)
			}
			ids = append(ids, v.ID)
		case http.StatusTooManyRequests:
			rejected++
			if resp.Header.Get("Retry-After") != "" {
				sawRetryAfter = true
			}
			var eb struct {
				Error struct {
					Code string `json:"code"`
				} `json:"error"`
			}
			if err := json.Unmarshal(data, &eb); err != nil || eb.Error.Code != "queue_full" {
				t.Fatalf("429 body not structured: %s", data)
			}
		default:
			t.Fatalf("unexpected status %d: %s", resp.StatusCode, data)
		}
	}
	if rejected == 0 {
		t.Fatalf("12 submissions against queue depth 2: no 429s")
	}
	if !sawRetryAfter {
		t.Fatalf("429 responses missing Retry-After")
	}
	for _, id := range ids {
		v := waitTerminal(t, hs.URL, id)
		if v.Status != string(StatusCompleted) {
			t.Errorf("accepted job %s ended %q", id, v.Status)
		}
	}
	checkLedger(t, s)
	if rep := s.Stats(); rep.RejectedQueueFull != int64(rejected) {
		t.Errorf("rejected_queue_full = %d, want %d", rep.RejectedQueueFull, rejected)
	}
}

// TestParallelismIdentity submits the same problem with parallelism 1
// and 4 (cache disabled so the second run really computes) and
// requires byte-identical result documents.
func TestParallelismIdentity(t *testing.T) {
	s, hs := newTestServer(t, Config{CacheCap: -1})
	_ = s
	hgr := testHGR(t, 10, 10)
	var bodies [][]byte
	for _, par := range []int{1, 4} {
		code, v, data := postJob(t, hs.URL, submitBody(t, hgr, 2,
			map[string]any{"seed": 42, "starts": 4, "parallelism": par}, nil))
		if code != http.StatusAccepted {
			t.Fatalf("parallelism %d: status %d: %s", par, code, data)
		}
		fin := waitTerminal(t, hs.URL, v.ID)
		if fin.Status != string(StatusCompleted) {
			t.Fatalf("parallelism %d: ended %q", par, fin.Status)
		}
		if fin.CacheHit {
			t.Fatalf("parallelism %d: cache hit with caching disabled", par)
		}
		res, _ := getResult(t, hs.URL, v.ID)
		bodies = append(bodies, res)
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Fatalf("results differ across parallelism:\n%s\nvs\n%s", bodies[0], bodies[1])
	}
}

// TestCacheHitIdentity submits the same problem twice and requires
// the cache hit to be flagged in the header and metadata while the
// result body stays byte-identical.
func TestCacheHitIdentity(t *testing.T) {
	s, hs := newTestServer(t, Config{})
	hgr := testHGR(t, 8, 8)
	// Parallelism is excluded from the fingerprint, so runs differing
	// only in worker count share a cache entry.
	mk := func(par int) []byte {
		return submitBody(t, hgr, 2, map[string]any{"seed": 3, "starts": 2, "parallelism": par}, nil)
	}

	_, v1, _ := postJob(t, hs.URL, mk(1))
	fin1 := waitTerminal(t, hs.URL, v1.ID)
	if fin1.Status != string(StatusCompleted) || fin1.CacheHit {
		t.Fatalf("first job: %+v", fin1)
	}
	res1, c1 := getResult(t, hs.URL, v1.ID)

	_, v2, _ := postJob(t, hs.URL, mk(4))
	fin2 := waitTerminal(t, hs.URL, v2.ID)
	if fin2.Status != string(StatusCompleted) || !fin2.CacheHit {
		t.Fatalf("second job should be a cache hit: %+v", fin2)
	}
	res2, c2 := getResult(t, hs.URL, v2.ID)

	if c1 != "miss" || c2 != "hit" {
		t.Fatalf("cache headers %q, %q; want miss, hit", c1, c2)
	}
	if !bytes.Equal(res1, res2) {
		t.Fatalf("cache hit body differs:\n%s\nvs\n%s", res1, res2)
	}
	rep := s.Stats()
	if rep.CacheHits != 1 || rep.CacheMisses != 1 {
		t.Fatalf("cache counters hits %d misses %d, want 1/1", rep.CacheHits, rep.CacheMisses)
	}
}

// TestDeadlineExceeded holds the job's run past a tiny deadline and
// requires the deadline-exceeded terminal status.
func TestDeadlineExceeded(t *testing.T) {
	s, hs := newTestServer(t, Config{
		CacheCap: -1,
		Inject: &faultinject.Plan{Entries: []faultinject.Entry{{
			Site: faultinject.SiteServerJob, Kind: faultinject.KindDelay,
			OnHit: 1, Delay: 400 * time.Millisecond, Start: faultinject.AnyStart,
		}}},
	})
	hgr := testHGR(t, 6, 6)
	code, v, data := postJob(t, hs.URL, submitBody(t, hgr, 2, nil,
		map[string]any{"timeout_ms": 50}))
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d: %s", code, data)
	}
	fin := waitTerminal(t, hs.URL, v.ID)
	if fin.Status != string(StatusDeadlineExceeded) {
		t.Fatalf("job ended %q, want deadline-exceeded", fin.Status)
	}
	checkLedger(t, s)
}

// TestClientCancel cancels a running job via DELETE and requires the
// cancelled terminal status.
func TestClientCancel(t *testing.T) {
	s, hs := newTestServer(t, Config{
		CacheCap: -1,
		Inject: &faultinject.Plan{Entries: []faultinject.Entry{{
			Site: faultinject.SiteServerJob, Kind: faultinject.KindDelay,
			OnHit: 1, Delay: 500 * time.Millisecond, Start: faultinject.AnyStart,
		}}},
	})
	hgr := testHGR(t, 6, 6)
	code, v, data := postJob(t, hs.URL, submitBody(t, hgr, 2, nil, nil))
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d: %s", code, data)
	}
	// Wait until the job is running (in its injected delay), then
	// cancel it.
	deadline := time.Now().Add(5 * time.Second)
	for {
		jv, ok := s.Job(v.ID)
		if !ok {
			t.Fatalf("job %s vanished", v.ID)
		}
		if jv.Status == StatusRunning {
			break
		}
		if jv.Status.Terminal() {
			t.Fatalf("job %s terminal (%s) before cancel", v.ID, jv.Status)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never started running", v.ID)
		}
		time.Sleep(5 * time.Millisecond)
	}
	req, _ := http.NewRequest(http.MethodDelete, hs.URL+"/v1/jobs/"+v.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE: %v", err)
	}
	resp.Body.Close()
	fin := waitTerminal(t, hs.URL, v.ID)
	if fin.Status != string(StatusCancelled) {
		t.Fatalf("job ended %q, want cancelled", fin.Status)
	}
	checkLedger(t, s)
}

// TestCancelInterruptsRunningJob cancels a job whose run would outlast
// the test by far: the cancel must reach the pipeline's context, so
// the job ends cancelled and interrupted within the wait.
func TestCancelInterruptsRunningJob(t *testing.T) {
	s, hs := newTestServer(t, Config{CacheCap: -1})
	hgr := testHGR(t, 12, 12)
	code, v, data := postJob(t, hs.URL, submitBody(t, hgr, 2,
		map[string]any{"starts": mlpart.MaxStarts, "parallelism": 1},
		map[string]any{"timeout_ms": 300000}))
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d: %s", code, data)
	}
	waitStatus(t, s, v.ID, StatusRunning)
	s.Cancel(v.ID)
	fin := waitTerminal(t, hs.URL, v.ID)
	if fin.Status != string(StatusCancelled) || !fin.Interrupted {
		t.Fatalf("job ended %q (interrupted %v), want cancelled and interrupted", fin.Status, fin.Interrupted)
	}
	checkLedger(t, s)
}

// TestCancelQueued cancels a job that is still waiting in the queue.
func TestCancelQueued(t *testing.T) {
	s, hs := newTestServer(t, Config{
		Workers:    1,
		QueueDepth: 8,
		CacheCap:   -1,
		Inject: &faultinject.Plan{Entries: []faultinject.Entry{{
			Site: faultinject.SiteServerJob, Kind: faultinject.KindDelay,
			OnHit: 1, Delay: 300 * time.Millisecond, Start: faultinject.AnyStart,
		}}},
	})
	hgr := testHGR(t, 4, 4)
	// First job occupies the single worker; the second waits queued.
	_, v1, _ := postJob(t, hs.URL, submitBody(t, hgr, 2, map[string]any{"seed": 1}, nil))
	_, v2, _ := postJob(t, hs.URL, submitBody(t, hgr, 2, map[string]any{"seed": 2}, nil))
	if _, ok := s.Cancel(v2.ID); !ok {
		t.Fatalf("cancel: job %s not found", v2.ID)
	}
	fin2 := waitTerminal(t, hs.URL, v2.ID)
	if fin2.Status != string(StatusCancelled) {
		t.Fatalf("queued job ended %q, want cancelled", fin2.Status)
	}
	fin1 := waitTerminal(t, hs.URL, v1.ID)
	if fin1.Status != string(StatusCompleted) {
		t.Fatalf("running job ended %q, want completed", fin1.Status)
	}
	checkLedger(t, s)
}

// TestAdmitPanicIsolated injects a panic at server.admit and requires
// a structured 500 for that submission only — the next submission
// succeeds and the process stays healthy.
func TestAdmitPanicIsolated(t *testing.T) {
	s, hs := newTestServer(t, Config{Inject: &faultinject.Plan{Entries: []faultinject.Entry{{
		Site: faultinject.SiteServerAdmit, Kind: faultinject.KindPanic,
		OnHit: 1, Start: 0, // submission 0 only
	}}}})
	hgr := testHGR(t, 4, 4)

	resp, err := http.Post(hs.URL+"/v1/jobs", "application/json",
		bytes.NewReader(submitBody(t, hgr, 2, nil, nil)))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("injected admission panic: status %d: %s", resp.StatusCode, data)
	}

	code, v, data := postJob(t, hs.URL, submitBody(t, hgr, 2, nil, nil))
	if code != http.StatusAccepted {
		t.Fatalf("submission after panic: %d: %s", code, data)
	}
	fin := waitTerminal(t, hs.URL, v.ID)
	if fin.Status != string(StatusCompleted) {
		t.Fatalf("job after panic ended %q", fin.Status)
	}
	checkLedger(t, s)
}

// TestCorruptBypassesCache arms a corrupt fault at server.job: the
// job must bypass the cache (degraded throughput) while still
// returning a byte-identical, correct result.
func TestCorruptBypassesCache(t *testing.T) {
	hgr := testHGR(t, 8, 8)
	mk := func() []byte {
		return submitBody(t, hgr, 2, map[string]any{"seed": 5}, nil)
	}

	// Reference result from a clean server.
	sClean, hsClean := newTestServer(t, Config{})
	_ = sClean
	_, vr, _ := postJob(t, hsClean.URL, mk())
	waitTerminal(t, hsClean.URL, vr.ID)
	want, _ := getResult(t, hsClean.URL, vr.ID)

	s, hs := newTestServer(t, Config{Inject: &faultinject.Plan{Entries: []faultinject.Entry{{
		Site: faultinject.SiteServerJob, Kind: faultinject.KindCorrupt,
		OnHit: 1, Start: faultinject.AnyStart,
	}}}})
	_, v1, _ := postJob(t, hs.URL, mk())
	waitTerminal(t, hs.URL, v1.ID)
	res1, _ := getResult(t, hs.URL, v1.ID)
	_, v2, _ := postJob(t, hs.URL, mk())
	fin2 := waitTerminal(t, hs.URL, v2.ID)
	if fin2.CacheHit {
		t.Fatalf("corrupt fault should bypass the cache, got a hit")
	}
	res2, c2 := getResult(t, hs.URL, v2.ID)
	if c2 != "miss" {
		t.Fatalf("X-Mlpartd-Cache = %q under cache bypass", c2)
	}
	if !bytes.Equal(res1, want) || !bytes.Equal(res2, want) {
		t.Fatalf("degraded-mode results differ from reference")
	}
	if rep := s.Stats(); rep.CacheHits != 0 {
		t.Errorf("cache_hits = %d under bypass", rep.CacheHits)
	}
}

// TestDrainMidBurst starts a burst against a slow single worker and
// drains mid-flight: jobs finish or are drained — none lost — and
// later submissions are refused with 503.
func TestDrainMidBurst(t *testing.T) {
	s, hs := newTestServer(t, Config{
		Workers:      1,
		QueueDepth:   32,
		CacheCap:     -1,
		DrainTimeout: 100 * time.Millisecond,
		Inject: &faultinject.Plan{Entries: []faultinject.Entry{{
			Site: faultinject.SiteServerJob, Kind: faultinject.KindDelay,
			OnHit: 1, Delay: 150 * time.Millisecond, Start: faultinject.AnyStart,
		}}},
	})
	hgr := testHGR(t, 4, 4)

	var ids []string
	for i := 0; i < 8; i++ {
		code, v, data := postJob(t, hs.URL, submitBody(t, hgr, 2, map[string]any{"seed": int64(i)}, nil))
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: %d: %s", i, code, data)
		}
		ids = append(ids, v.ID)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}

	// Post-drain: admission refuses with 503 + Retry-After.
	resp, err := http.Post(hs.URL+"/v1/jobs", "application/json",
		bytes.NewReader(submitBody(t, hgr, 2, nil, nil)))
	if err != nil {
		t.Fatalf("POST after drain: %v", err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while drained: status %d: %s", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatalf("503 missing Retry-After")
	}

	// readyz flips to 503, healthz stays 200.
	if resp, err := http.Get(hs.URL + "/readyz"); err != nil {
		t.Fatalf("readyz: %v", err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("readyz while drained: %d", resp.StatusCode)
		}
	}
	if resp, err := http.Get(hs.URL + "/healthz"); err != nil {
		t.Fatalf("healthz: %v", err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("healthz while drained: %d", resp.StatusCode)
		}
	}

	// Every accepted job is terminal; a drain may complete some and
	// drain the rest, but must lose none.
	counts := map[string]int{}
	for _, id := range ids {
		v, ok := s.Job(id)
		if !ok {
			t.Fatalf("job %s lost", id)
		}
		if !v.Status.Terminal() {
			t.Fatalf("job %s not terminal after drain: %s", id, v.Status)
		}
		counts[string(v.Status)]++
	}
	if counts[string(StatusDrained)] == 0 {
		t.Logf("note: all burst jobs finished inside the grace period: %v", counts)
	}
	checkLedger(t, s)
	if !s.Stats().Draining {
		t.Errorf("stats say not draining after Drain")
	}
}

// TestChaosSweepServer runs every fault kind through every server
// site under a concurrent burst and asserts the core robustness
// contract: the process never dies, every accepted job reaches
// exactly one terminal status, and the ledger balances.
func TestChaosSweepServer(t *testing.T) {
	kinds := []faultinject.Kind{
		faultinject.KindPanic, faultinject.KindCancel,
		faultinject.KindDelay, faultinject.KindCorrupt,
	}
	sites := []faultinject.Site{
		faultinject.SiteServerAdmit, faultinject.SiteServerJob, faultinject.SiteServerEvents,
	}
	hgr := testHGR(t, 6, 6)

	for _, site := range sites {
		for _, kind := range kinds {
			t.Run(fmt.Sprintf("%s_%d", site, kind), func(t *testing.T) {
				t.Parallel()
				s, hs := newTestServer(t, Config{
					Workers:    2,
					QueueDepth: 16,
					CacheCap:   -1,
					Inject: &faultinject.Plan{Seed: 7, Entries: []faultinject.Entry{{
						Site: site, Kind: kind, Prob: 0.5,
						Delay: 20 * time.Millisecond, Start: faultinject.AnyStart,
					}}},
				})

				const jobs = 10
				var wg sync.WaitGroup
				ids := make([]string, jobs)
				codes := make([]int, jobs)
				for i := 0; i < jobs; i++ {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						body := submitBody(t, hgr, 2, map[string]any{"seed": int64(i)}, nil)
						resp, err := http.Post(hs.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
						if err != nil {
							t.Errorf("POST %d: %v", i, err)
							return
						}
						data, _ := io.ReadAll(resp.Body)
						resp.Body.Close()
						codes[i] = resp.StatusCode
						if resp.StatusCode == http.StatusAccepted {
							var v jobView
							if err := json.Unmarshal(data, &v); err != nil {
								t.Errorf("job view %d: %v", i, err)
								return
							}
							ids[i] = v.ID
						}
					}(i)
				}
				wg.Wait()

				accepted := 0
				for i, id := range ids {
					if id == "" {
						// Shed or failed at admission — that must have been a
						// structured rejection, not a transport error.
						if codes[i] != http.StatusTooManyRequests && codes[i] != http.StatusInternalServerError {
							t.Errorf("submission %d: unexpected status %d", i, codes[i])
						}
						continue
					}
					accepted++
					v := waitTerminal(t, hs.URL, id)
					if !Status(v.Status).Terminal() {
						t.Errorf("job %s non-terminal %q", id, v.Status)
					}
					// Exercise the SSE endpoint under fault: the job is
					// terminal so the stream is a finite replay. An injected
					// panic at server.events is a structured 500 for this
					// subscription only — never a wedged or dead server.
					resp, err := http.Get(hs.URL + "/v1/jobs/" + id + "/events")
					if err != nil {
						t.Errorf("GET events %s: %v", id, err)
						continue
					}
					_, _ = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusInternalServerError {
						t.Errorf("GET events %s: unexpected status %d", id, resp.StatusCode)
					}
				}

				// Drain and re-verify: quiesced ledger, process healthy.
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				defer cancel()
				if err := s.Drain(ctx); err != nil {
					t.Fatalf("drain: %v", err)
				}
				rep := s.Stats()
				if rep.Accepted != int64(accepted) {
					t.Errorf("accepted counter %d, want %d", rep.Accepted, accepted)
				}
				checkLedger(t, s)
			})
		}
	}
}

// TestStatszAndProbes exercises the observability endpoints.
func TestStatszAndProbes(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d: %s", path, resp.StatusCode, data)
		}
		return data
	}
	// Both probes answer 200 on a live server (TestDrainMidBurst pins 503
	// from /readyz once draining).
	get("/healthz")
	get("/readyz")

	hgr := testHGR(t, 6, 6)
	_, v, _ := postJob(t, hs.URL, submitBody(t, hgr, 2, nil, map[string]any{"stats": true}))
	fin := waitTerminal(t, hs.URL, v.ID)
	if fin.Status != string(StatusCompleted) {
		t.Fatalf("job ended %q", fin.Status)
	}
	if len(fin.Stats) == 0 || string(fin.Stats) == "null" {
		t.Fatalf("stats requested but job view has none")
	}
	var runRep struct {
		Schema string `json:"schema"`
	}
	if err := json.Unmarshal(fin.Stats, &runRep); err != nil || runRep.Schema != "mlpart-stats/1" {
		t.Fatalf("job stats schema %q (%v)", runRep.Schema, err)
	}

	data := get("/statsz")
	var rep struct {
		Schema    string `json:"schema"`
		Accepted  int64  `json:"accepted"`
		Completed int64  `json:"completed"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("statsz body: %v: %s", err, data)
	}
	if rep.Schema != "mlpartd-stats/1" || rep.Accepted != 1 || rep.Completed != 1 {
		t.Fatalf("statsz %+v", rep)
	}

	// The bench view carries one entry per algorithm executed so far:
	// here the k = 2 job's bipartition.
	data = get("/statsz?schema=bench")
	var bench struct {
		Schema  string `json:"schema"`
		Entries []struct {
			Algorithm string `json:"algorithm"`
		} `json:"entries"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatalf("statsz?schema=bench body: %v: %s", err, data)
	}
	if bench.Schema != "mlpart-bench/1" || len(bench.Entries) != 1 || bench.Entries[0].Algorithm != "bipartition" {
		t.Fatalf("statsz?schema=bench: %s", data)
	}

	if resp, err := http.Get(hs.URL + "/v1/jobs/nope"); err != nil {
		t.Fatalf("GET missing job: %v", err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("missing job: %d", resp.StatusCode)
		}
	}
}

// TestQuadrisection runs a k=4 job through the service.
func TestQuadrisection(t *testing.T) {
	s, hs := newTestServer(t, Config{})
	_ = s
	hgr := testHGR(t, 8, 8)
	code, v, data := postJob(t, hs.URL, submitBody(t, hgr, 4, map[string]any{"seed": 11}, nil))
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d: %s", code, data)
	}
	fin := waitTerminal(t, hs.URL, v.ID)
	if fin.Status != string(StatusCompleted) {
		t.Fatalf("quad job ended %q", fin.Status)
	}
	var doc Result
	if err := json.Unmarshal(fin.Result, &doc); err != nil {
		t.Fatalf("result: %v", err)
	}
	if doc.K != 4 {
		t.Fatalf("result k = %d", doc.K)
	}
	blocks := map[int32]bool{}
	for _, b := range doc.Partition {
		blocks[b] = true
	}
	if len(blocks) != 4 {
		t.Fatalf("quadrisection used %d blocks", len(blocks))
	}
}

// TestResultCacheLRU exercises the bounded cache directly.
func TestResultCacheLRU(t *testing.T) {
	c := newResultCache(2)
	k := func(i int) cacheKey { return cacheKey{content: fmt.Sprint(i), fingerprint: "f", k: 2} }
	c.put(k(1), Result{Cut: 1})
	c.put(k(2), Result{Cut: 2})
	if _, ok := c.get(k(1)); !ok { // refresh 1; 2 becomes LRU
		t.Fatal("k1 missing")
	}
	c.put(k(3), Result{Cut: 3}) // evicts 2
	if _, ok := c.get(k(2)); ok {
		t.Fatal("k2 survived eviction")
	}
	if _, ok := c.get(k(1)); !ok {
		t.Fatal("k1 evicted despite recency")
	}
	if c.len() != 2 {
		t.Fatalf("len %d", c.len())
	}
	if disabled := newResultCache(-1); disabled != nil {
		t.Fatal("negative capacity should disable")
	}
}
