package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"mlpart/internal/faultinject"
	"mlpart/internal/hypergraph"
	"mlpart/internal/netgen"
)

// TestSubmitAllocationBudget bounds what one POST /v1/jobs allocates
// on its way to the queue, journal on: at most three times the body's
// length (the body, the hgr text unquoted once, the parser's pin
// buffer and whatever else scales with the text), plus the arrays the
// parsed hypergraph keeps, plus 16 KiB for the fixed per-request work
// (the job, its events, the journal record and the reply). A second
// copy of the body or a buffer grown by doubling breaks it.
func TestSubmitAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	const slackBytes = 16 << 10
	// Job 0 holds the only worker in an injected delay, so the jobs
	// submitted after it stay queued and no execution allocates while
	// the submission is measured.
	s, err := New(Config{
		Workers:     1,
		CacheCap:    -1,
		JournalPath: filepath.Join(t.TempDir(), "journal"),
		Inject: &faultinject.Plan{Seed: 1, Entries: []faultinject.Entry{{
			Site: faultinject.SiteServerJob, Kind: faultinject.KindDelay,
			OnHit: 1, Delay: time.Second, Start: 0,
		}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	h := s.Handler()

	post := func(body []byte) (string, uint64) {
		t.Helper()
		req := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		h.ServeHTTP(rec, req)
		runtime.ReadMemStats(&after)
		if rec.Code != http.StatusAccepted {
			t.Fatalf("POST: status %d: %s", rec.Code, rec.Body.Bytes())
		}
		var v struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
			t.Fatal(err)
		}
		return v.ID, after.TotalAlloc - before.TotalAlloc
	}
	body := func(seed int64) []byte {
		t.Helper()
		c := netgen.MustGenerate(netgen.Spec{Name: "budget", Cells: 2400, Nets: 2500, Pins: 8000, Seed: seed})
		var text bytes.Buffer
		if err := hypergraph.WriteHGR(&text, c.H); err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(map[string]any{"hgr": text.String(), "k": 2})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	blocker, _ := post([]byte(`{"hgr":` + jsonString(testHGR(t, 4, 4)) + `}`))
	deadline := time.Now().Add(10 * time.Second)
	for {
		v, _ := s.Job(blocker)
		if v.Status == StatusRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("blocking job still %s", v.Status)
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond) // into the injected delay

	// Warm-up: the first large submission also grows buffers that
	// every later one reuses (the journal's frame buffer, the JSON
	// encoder's pooled state).
	post(body(1))
	in := body(2)
	id, got := post(in)
	s.mu.Lock()
	st, jh := s.jobs[id].status, s.jobs[id].h
	s.mu.Unlock()
	if st != StatusQueued {
		t.Fatalf("measured job is %s, want queued", st)
	}
	kept := 8*jh.NumCells() + 4*(jh.NumNets()+1) + 8*jh.NumPins() + 4*(jh.NumCells()+1)
	if jh.Weighted() {
		kept += 4 * jh.NumNets()
	}
	limit := 3*uint64(len(in)) + uint64(kept) + slackBytes
	t.Logf("%d-pin job, %d-byte body: %d bytes allocated, %.2f × body beyond the hypergraph's %d",
		jh.NumPins(), len(in), got, float64(got-min(got, uint64(kept)))/float64(len(in)), kept)
	if got > limit {
		t.Errorf("one submission allocated %d bytes, want ≤ %d (3 × %d-byte body + hypergraph %d + %d)",
			got, limit, len(in), kept, slackBytes)
	}
}
