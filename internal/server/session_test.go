package server

// Service-level tests for per-worker workspace reuse. Every executor
// owns one mlpart.Session and runs each job it dequeues on it; the
// contract under test is that the reuse is invisible in results (each
// document equals a one-shot library call) and in failure (a job that
// follows a panicked one on the same worker completes normally).

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mlpart"
	"mlpart/internal/faultinject"
	"mlpart/internal/hypergraph"
)

// oneShotDoc returns the result document a job would serve, computed
// by a one-shot library call on fresh workspaces and encoded exactly
// as GET /v1/jobs/{id}/result encodes it.
func oneShotDoc(t *testing.T, hgr string, k int, options map[string]any) []byte {
	t.Helper()
	h, err := hypergraph.ReadHGR(strings.NewReader(hgr))
	if err != nil {
		t.Fatalf("ReadHGR: %v", err)
	}
	raw, err := json.Marshal(options)
	if err != nil {
		t.Fatalf("marshal options: %v", err)
	}
	opt, err := mlpart.ParseOptionsJSON(raw)
	if err != nil {
		t.Fatalf("ParseOptionsJSON: %v", err)
	}
	fp, err := opt.Fingerprint()
	if err != nil {
		t.Fatalf("Fingerprint: %v", err)
	}
	run := mlpart.BipartitionCtx
	if k == 4 {
		run = mlpart.QuadrisectCtx
	}
	p, info, err := run(context.Background(), h, opt)
	if err != nil {
		t.Fatalf("one-shot k=%d %v: %v", k, options, err)
	}
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, Result{
		ContentHash: h.ContentHash(),
		Fingerprint: fp,
		K:           k,
		Cut:         info.Cut,
		SumDegrees:  info.SumDegrees,
		Levels:      info.Levels,
		Partition:   p.Part,
	})
	return rec.Body.Bytes()
}

// TestWorkerSessionMatchesOneShot is the determinism e2e of workspace
// reuse: a 30-job mixed-size burst through a one-worker server, with
// the result cache disabled so every job computes, runs every job on
// the same Session — each inheriting workspaces grown and dirtied by
// the jobs before it, across both k and both instance sizes. Every
// result document must equal the one-shot library call's.
func TestWorkerSessionMatchesOneShot(t *testing.T) {
	small := testHGR(t, 6, 6)
	large := testHGR(t, 16, 16)
	s, hs := newTestServer(t, Config{Workers: 1, QueueDepth: 64, CacheCap: -1})

	type submission struct {
		hgr     string
		k       int
		options map[string]any
	}
	const jobs = 30
	subs := make([]submission, jobs)
	ids := make([]string, jobs)
	for i := range subs {
		sub := submission{hgr: small, k: 2, options: map[string]any{"seed": int64(1000 + i)}}
		if i%5 == 4 {
			sub.hgr = large
		}
		if i%2 == 1 {
			sub.k = 4
		}
		if i%3 == 2 {
			// Sequential multi-start: the starts share the Session too.
			sub.options["starts"] = 2
			sub.options["parallelism"] = 1
		}
		subs[i] = sub
		code, v, data := postJob(t, hs.URL, submitBody(t, sub.hgr, sub.k, sub.options, nil))
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: status %d: %s", i, code, data)
		}
		ids[i] = v.ID
	}

	for i, id := range ids {
		v := waitTerminal(t, hs.URL, id)
		if v.Status != string(StatusCompleted) {
			t.Fatalf("job %d (%s) ended %q, want completed", i, id, v.Status)
		}
		got, _ := getResult(t, hs.URL, id)
		if want := oneShotDoc(t, subs[i].hgr, subs[i].k, subs[i].options); !bytes.Equal(got, want) {
			t.Errorf("job %d: Session result differs from the one-shot call (%d vs %d bytes)", i, len(got), len(want))
		}
	}
	checkQuiescedLedger(t, s)
}

// TestWorkerSessionAfterPanic pins a server.job panic onto one job of
// a burst through a one-worker server: the victim fails alone with a
// typed "internal" error, and every other job — including the ones
// that run after it on the same worker and Session — completes with
// the one-shot call's result document.
func TestWorkerSessionAfterPanic(t *testing.T) {
	const jobs = 6
	const victim = 3 // 0-based admission seq of the poisoned job

	s, hs := newTestServer(t, Config{
		Workers: 1, QueueDepth: 16, CacheCap: -1,
		MaxRetries: -1, // no retries: the panic must be terminal
		Inject: &faultinject.Plan{Seed: 1, Entries: []faultinject.Entry{
			faultinject.OnStart(faultinject.SiteServerJob, faultinject.KindPanic, 1, victim),
		}},
	})

	hgr := testHGR(t, 6, 6)
	options := func(i int) map[string]any { return map[string]any{"seed": int64(i)} }
	ids := make([]string, jobs)
	for i := range ids {
		code, v, data := postJob(t, hs.URL, submitBody(t, hgr, 2, options(i), nil))
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: status %d: %s", i, code, data)
		}
		ids[i] = v.ID
	}

	for i, id := range ids {
		v := waitTerminal(t, hs.URL, id)
		if i == victim {
			if v.Status != string(StatusFailed) {
				t.Fatalf("victim job %s ended %q, want failed", id, v.Status)
			}
			if v.Error == nil || v.Error.Code != "internal" {
				t.Fatalf("victim job %s error = %+v, want code internal", id, v.Error)
			}
			continue
		}
		if v.Status != string(StatusCompleted) {
			t.Errorf("job %d (%s) ended %q, want completed", i, id, v.Status)
			continue
		}
		got, _ := getResult(t, hs.URL, id)
		if want := oneShotDoc(t, hgr, 2, options(i)); !bytes.Equal(got, want) {
			t.Errorf("job %d (%s): result differs from the one-shot call", i, id)
		}
	}

	rep := s.Stats()
	if rep.Failed != 1 || rep.Completed != jobs-1 {
		t.Errorf("ledger: completed %d failed %d, want %d/%d", rep.Completed, rep.Failed, jobs-1, 1)
	}
	checkQuiescedLedger(t, s)
}

// checkQuiescedLedger waits for the in-flight counters to settle and
// then applies the full ledger invariant on a server that is idle but
// not yet drained.
func checkQuiescedLedger(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		rep := s.Stats()
		if rep.Queued == 0 && rep.Running == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server did not quiesce: queued %d running %d", rep.Queued, rep.Running)
		}
		time.Sleep(5 * time.Millisecond)
	}
	checkLedger(t, s)
}
