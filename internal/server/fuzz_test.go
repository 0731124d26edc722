package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"mlpart/internal/hypergraph"
)

// FuzzJobRequest fuzzes the POST /v1/jobs decoder, the network-facing
// edge of mlpartd. Whatever the body, the submission must answer 202
// (admitted) or a 4xx, never a 5xx or a panic; a 400 must count as
// exactly one invalid submission; and once an admitted job finishes,
// the ledger must balance (accepted == terminal statuses, nothing
// queued or running). Small limits and deadlines keep admitted jobs
// cheap. The seeds run with every `go test`; `make fuzz-smoke` runs
// the fuzzer for 5 s.
func FuzzJobRequest(f *testing.F) {
	const mesh = "12 9\n1 2\n2 3\n4 5\n5 6\n7 8\n8 9\n1 4\n4 7\n2 5\n5 8\n3 6\n6 9\n"
	for _, seed := range []string{
		`{"hgr":` + jsonString(mesh) + `}`,
		`{"hgr":` + jsonString(mesh) + `,"k":4,"options":{"engine":"clip","starts":2},"timeout_ms":100,"stats":true}`,
		`{"hgr":` + jsonString(mesh) + `,"options":null}`,
		`{"hgr":` + jsonString(mesh) + `,"k":3}`,
		`{"hgr":` + jsonString(mesh) + `,"timeout_ms":-1}`,
		`{"hgr":` + jsonString(mesh) + `,"timeout_ms":99999999}`,
		`{"hgr":` + jsonString(mesh) + `,"options":{"engine":"nope"}}`,
		`{"hgr":` + jsonString(mesh) + `,"options":{"tolerance":"NaN"}}`,
		`{"hgr":` + jsonString(mesh) + `,"options":[1,2]}`,
		`{"hgr":` + jsonString(mesh) + `,"extra":1}`,
		`{"hgr":"1000000000 1000000000\n"}`,
		`{"hgr":"2 2 1\n1 2\n"}`,
		`{"hgr":""}`,
		`{"hgr":"x"}`,
		`{"k":"2"}`,
		`[]`,
		`null`,
		`{`,
		``,
		`{"hgr":` + jsonString(mesh) + `}{"k":4}`,
	} {
		f.Add([]byte(seed))
	}
	s, err := New(Config{
		QueueDepth:     4,
		Workers:        1,
		DefaultTimeout: 200 * time.Millisecond,
		MaxTimeout:     time.Second,
		CacheCap:       -1,
		MaxBodyBytes:   1 << 16,
		Limits:         hypergraph.Limits{MaxCells: 256, MaxNets: 256, MaxPins: 2048},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { _ = s.Close() })
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		before := s.Stats()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
		after := s.Stats()
		switch code := rec.Code; {
		case code == http.StatusAccepted:
			var v struct {
				ID string `json:"id"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil || v.ID == "" {
				t.Fatalf("202 without a job id: %v: %s", err, rec.Body.Bytes())
			}
			wait := httptest.NewRecorder()
			h.ServeHTTP(wait, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+v.ID+"?wait_ms=30000", nil))
			if wait.Code != http.StatusOK {
				t.Fatalf("GET job %s: %d: %s", v.ID, wait.Code, wait.Body.Bytes())
			}
		case code == http.StatusBadRequest:
			if after.Invalid != before.Invalid+1 || after.Accepted != before.Accepted {
				t.Fatalf("400 moved invalid %d -> %d, accepted %d -> %d", before.Invalid, after.Invalid, before.Accepted, after.Accepted)
			}
		case code >= 400 && code < 500:
		default:
			t.Fatalf("status %d for body %q: %s", code, body, rec.Body.Bytes())
		}
		rep := s.Stats()
		terminals := rep.Completed + rep.Failed + rep.Cancelled + rep.DeadlineExceeded + rep.Drained
		if rep.Queued != 0 || rep.Running != 0 || rep.Accepted != terminals {
			t.Fatalf("ledger unbalanced: accepted %d, terminals %d, queued %d, running %d", rep.Accepted, terminals, rep.Queued, rep.Running)
		}
	})
}

// jsonString quotes s as a JSON string literal.
func jsonString(s string) string {
	b, err := json.Marshal(s)
	if err != nil {
		panic(err)
	}
	return string(b)
}
