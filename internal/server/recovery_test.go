package server

// Crash-recovery tests: journal persistence, restart replay,
// torn-tail truncation, idempotency keys, and the journal fault
// sites. The process-level kill harness lives in cmd/mlpartd; these
// tests exercise the same machinery in-process by handing a journal
// from one Server instance (or a hand-written file) to the next.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mlpart"
	"mlpart/internal/faultinject"
	"mlpart/internal/hypergraph"
	"mlpart/internal/journal"
)

// acceptedFor builds the accepted record admission would have written
// for a k=2 submission of hgr.
func acceptedFor(t *testing.T, id string, seq int, hgr, idemKey string) journal.Record {
	t.Helper()
	h, err := hypergraph.ReadHGRLimits(strings.NewReader(hgr), hypergraph.Limits{})
	if err != nil {
		t.Fatalf("parse hgr: %v", err)
	}
	fp, err := mlpart.Options{}.Fingerprint()
	if err != nil {
		t.Fatalf("fingerprint: %v", err)
	}
	req, err := json.Marshal(map[string]any{"hgr": hgr, "k": 2})
	if err != nil {
		t.Fatalf("marshal request: %v", err)
	}
	return journal.Record{
		Type: journal.TypeAccepted, ID: id, Seq: seq,
		ContentHash: h.ContentHash(), Fingerprint: fp, K: 2,
		IdemKey: idemKey, Request: req,
	}
}

func writeJournal(t *testing.T, path string, recs ...journal.Record) {
	t.Helper()
	w, err := journal.OpenAppend(path, journal.Options{})
	if err != nil {
		t.Fatalf("OpenAppend: %v", err)
	}
	for _, r := range recs {
		if err := w.Append(r); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// postJobIdem posts a submission with an Idempotency-Key and returns
// the status, decoded view, and the X-Mlpartd-Idempotent header.
func postJobIdem(t *testing.T, base string, body []byte, key string) (int, jobView, string) {
	t.Helper()
	req, err := http.NewRequest("POST", base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Idempotency-Key", key)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var v jobView
	if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(data, &v); err != nil {
			t.Fatalf("unmarshal job view: %v: %s", err, data)
		}
	}
	return resp.StatusCode, v, resp.Header.Get("X-Mlpartd-Idempotent")
}

// TestRestartRecoversAcceptedJobs is the core recovery scenario: a
// journal holds one closed job and two accepted-but-unfinished ones —
// exactly what a SIGKILL mid-burst leaves. The restarted server must
// tombstone the closed job and run the other two to completion.
func TestRestartRecoversAcceptedJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping service test in -short mode")
	}
	hgr := testHGR(t, 8, 8)
	path := filepath.Join(t.TempDir(), "jobs.wal")
	writeJournal(t, path,
		acceptedFor(t, "j-000000", 0, hgr, ""),
		journal.Record{Type: journal.TypeStarted, ID: "j-000000", Seq: 0},
		journal.Record{Type: journal.TypeTerminal, ID: "j-000000", Seq: 0, Status: "completed"},
		acceptedFor(t, "j-000001", 1, hgr, ""),
		journal.Record{Type: journal.TypeStarted, ID: "j-000001", Seq: 1},
		acceptedFor(t, "j-000002", 2, testHGR(t, 6, 6), "burst-key"),
	)

	s, hs := newTestServer(t, Config{JournalPath: path, Workers: 2})

	// The closed job is a tombstone: queryable, terminal, recovered,
	// never re-run.
	v, ok := s.Job("j-000000")
	if !ok {
		t.Fatal("closed job j-000000 lost across restart")
	}
	if v.Status != StatusCompleted || !v.Recovered {
		t.Errorf("tombstone = status %q recovered %v, want completed/true", v.Status, v.Recovered)
	}

	// The unfinished jobs were re-enqueued and reach completion.
	for _, id := range []string{"j-000001", "j-000002"} {
		jv := waitTerminal(t, hs.URL, id)
		if jv.Status != "completed" || !jv.Recovered {
			t.Errorf("recovered job %s = status %q recovered %v, want completed/true", id, jv.Status, jv.Recovered)
		}
		if _, cache := getResult(t, hs.URL, id); cache != "miss" {
			t.Errorf("recovered job %s served from cache %q, want miss", id, cache)
		}
	}

	rep := s.Stats()
	if rep.Recovered != 2 || rep.ReplayedTerminal != 1 || rep.Accepted != 2 {
		t.Errorf("recovery counters = recovered %d replayed %d accepted %d, want 2/1/2",
			rep.Recovered, rep.ReplayedTerminal, rep.Accepted)
	}
	checkLedger(t, s)

	// New submissions continue the journal's id sequence.
	code, nv, _ := postJob(t, hs.URL, submitBody(t, hgr, 2, nil, nil))
	if code != http.StatusAccepted || nv.ID != "j-000003" {
		t.Errorf("post-recovery submission = %d %q, want 202 j-000003", code, nv.ID)
	}
	waitTerminal(t, hs.URL, nv.ID)
}

// TestJournalSurvivesGracefulRestart drives a real server lifecycle —
// submit, complete, drain — and restarts on the same journal: every
// job id must still resolve with its original terminal status, and
// the Idempotency-Key must still deduplicate.
func TestJournalSurvivesGracefulRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping service test in -short mode")
	}
	hgr := testHGR(t, 8, 8)
	path := filepath.Join(t.TempDir(), "jobs.wal")
	body := submitBody(t, hgr, 2, nil, nil)

	s1, err := New(Config{JournalPath: path, Workers: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	hs1 := httptestStart(t, s1)
	code, v1, hdr := postJobIdem(t, hs1, body, "key-alpha")
	if code != http.StatusAccepted || hdr != "" {
		t.Fatalf("first submission = %d idempotent %q, want 202 \"\"", code, hdr)
	}
	waitTerminal(t, hs1, v1.ID)
	res1, _ := getResult(t, hs1, v1.ID)
	if err := s1.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2, err := New(Config{JournalPath: path, Workers: 2})
	if err != nil {
		t.Fatalf("New after restart: %v", err)
	}
	defer s2.Close()
	hs2 := httptestStart(t, s2)

	v, ok := s2.Job(v1.ID)
	if !ok || !v.Status.Terminal() || !v.Recovered {
		t.Fatalf("job %s after restart = %+v ok=%v, want terminal recovered tombstone", v1.ID, v, ok)
	}
	if rep := s2.Stats(); rep.ReplayedTerminal != 1 || rep.Recovered != 0 {
		t.Errorf("counters after graceful restart = %+v, want replayed_terminal 1, recovered 0", rep)
	}

	// Same key, same request: the original id comes back with no new
	// admission — across the restart.
	code, v2, hdr := postJobIdem(t, hs2, body, "key-alpha")
	if code != http.StatusOK || hdr != "replay" || v2.ID != v1.ID {
		t.Errorf("idempotent replay after restart = %d %q id %q, want 200 replay %q", code, hdr, v2.ID, v1.ID)
	}
	// Same key, different request: conflict.
	if code, _, _ := postJobIdem(t, hs2, submitBody(t, testHGR(t, 6, 6), 2, nil, nil), "key-alpha"); code != http.StatusConflict {
		t.Errorf("idempotency conflict = %d, want 409", code)
	}
	// Resubmitting without a key recomputes and must reproduce the
	// pre-crash result byte-for-byte (determinism is why results are
	// not journaled).
	code, v3, _ := postJob(t, hs2, body)
	if code != http.StatusAccepted {
		t.Fatalf("resubmission = %d, want 202", code)
	}
	waitTerminal(t, hs2, v3.ID)
	res2, _ := getResult(t, hs2, v3.ID)
	if !bytes.Equal(res1, res2) {
		t.Errorf("result changed across restart:\n%s\nvs\n%s", res1, res2)
	}
}

// newUnmanagedServer serves s over HTTP without tying s's lifecycle
// to the test — restart tests close and reopen servers explicitly.
func newUnmanagedServer(s *Server) *httptest.Server {
	return httptest.NewServer(s.Handler())
}

// httptestStart serves s without registering cleanup-close of s (the
// caller manages the server lifecycle explicitly to model restarts).
func httptestStart(t *testing.T, s *Server) string {
	t.Helper()
	hs := newUnmanagedServer(s)
	t.Cleanup(hs.Close)
	return hs.URL
}

// TestTornTailTruncatedOnRestart appends garbage after valid frames
// and restarts: the tail is dropped, counted, and compacted away.
func TestTornTailTruncatedOnRestart(t *testing.T) {
	hgr := testHGR(t, 6, 6)
	path := filepath.Join(t.TempDir(), "jobs.wal")
	writeJournal(t, path,
		acceptedFor(t, "j-000000", 0, hgr, ""),
		journal.Record{Type: journal.TypeTerminal, ID: "j-000000", Seq: 0, Status: "completed"},
	)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x13, 0x37, 0xde, 0xad, 0xbe}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s, err := New(Config{JournalPath: path, Workers: 1})
	if err != nil {
		t.Fatalf("New on torn journal: %v", err)
	}
	defer s.Close()
	if rep := s.Stats(); rep.TornTailTruncated != 1 || rep.ReplayedTerminal != 1 {
		t.Errorf("counters = torn %d replayed %d, want 1/1", rep.TornTailTruncated, rep.ReplayedTerminal)
	}
	// Compaction materialized the truncation: the journal now loads
	// cleanly.
	recs, st, err := journal.Load(path, nil)
	if err != nil || st.Truncated || st.TornBytes != 0 {
		t.Fatalf("compacted journal: err %v stats %+v", err, st)
	}
	if len(recs) != 2 {
		t.Errorf("compacted journal has %d records, want 2 (slim accepted + terminal)", len(recs))
	}
}

// TestIdempotencyKeyDedup covers the single-process dedup path: a
// duplicate returns the original job and no counters move except
// idempotent_replays.
func TestIdempotencyKeyDedup(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping service test in -short mode")
	}
	hgr := testHGR(t, 8, 8)
	s, hs := newTestServer(t, Config{Workers: 2})
	body := submitBody(t, hgr, 2, nil, nil)

	code, v1, hdr := postJobIdem(t, hs.URL, body, "dup-key")
	if code != http.StatusAccepted || hdr != "" {
		t.Fatalf("first = %d %q, want 202", code, hdr)
	}
	waitTerminal(t, hs.URL, v1.ID)
	for i := 0; i < 3; i++ {
		code, v2, hdr := postJobIdem(t, hs.URL, body, "dup-key")
		if code != http.StatusOK || hdr != "replay" || v2.ID != v1.ID {
			t.Fatalf("dup %d = %d %q id %q, want 200 replay %q", i, code, hdr, v2.ID, v1.ID)
		}
	}
	if code, _, _ := postJobIdem(t, hs.URL, submitBody(t, hgr, 4, nil, nil), "dup-key"); code != http.StatusConflict {
		t.Errorf("conflicting reuse = %d, want 409", code)
	}
	rep := s.Stats()
	if rep.Accepted != 1 || rep.IdempotentReplays != 3 {
		t.Errorf("accepted %d idempotent %d, want 1/3", rep.Accepted, rep.IdempotentReplays)
	}
}

// TestJournalAppendFaultRejectsSubmission: a torn write at the
// journal.append site must reject the submission (503, never a
// silently-lost acknowledged job) and leave the writer read-only; a
// transient (cancel) fault fails one submission only.
func TestJournalAppendFaultRejectsSubmission(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping service test in -short mode")
	}
	hgr := testHGR(t, 6, 6)
	body := submitBody(t, hgr, 2, nil, nil)

	t.Run("corrupt poisons", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "jobs.wal")
		s, hs := newTestServer(t, Config{
			JournalPath: path, Workers: 1,
			Inject: &faultinject.Plan{Seed: 1, Entries: []faultinject.Entry{
				faultinject.On(faultinject.SiteJournalAppend, faultinject.KindCorrupt, 1),
			}},
		})
		for i := 0; i < 2; i++ {
			code, _, data := postJob(t, hs.URL, body)
			if code != http.StatusServiceUnavailable {
				t.Fatalf("submission %d on dead journal = %d (%s), want 503", i, code, data)
			}
		}
		rep := s.Stats()
		if rep.Accepted != 0 || rep.JournalAppendErrors != 2 {
			t.Errorf("accepted %d append errors %d, want 0/2", rep.Accepted, rep.JournalAppendErrors)
		}
		// The half-written frame is a torn tail for the next process.
		recs, st, err := journal.Load(path, nil)
		if err != nil || len(recs) != 0 || !st.Truncated {
			t.Errorf("torn journal: %d records, stats %+v, err %v; want 0 records, truncated", len(recs), st, err)
		}
	})

	t.Run("cancel is transient", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "jobs.wal")
		s, hs := newTestServer(t, Config{
			JournalPath: path, Workers: 1,
			Inject: &faultinject.Plan{Seed: 1, Entries: []faultinject.Entry{
				faultinject.On(faultinject.SiteJournalAppend, faultinject.KindCancel, 1),
			}},
		})
		if code, _, _ := postJob(t, hs.URL, body); code != http.StatusServiceUnavailable {
			t.Fatalf("faulted submission = %d, want 503", code)
		}
		code, v, _ := postJob(t, hs.URL, body)
		if code != http.StatusAccepted {
			t.Fatalf("submission after transient fault = %d, want 202", code)
		}
		waitTerminal(t, hs.URL, v.ID)
		if rep := s.Stats(); rep.Accepted != 1 || rep.JournalAppendErrors != 1 {
			t.Errorf("accepted %d append errors %d, want 1/1", rep.Accepted, rep.JournalAppendErrors)
		}
	})
}

// TestChaosSweepJournal sweeps every fault kind over the journal
// sites: whatever is injected, the server either refuses to start
// (cleanly) or ends the run with the ledger balanced and the journal
// loadable.
func TestChaosSweepJournal(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping chaos sweep in -short mode")
	}
	hgr := testHGR(t, 6, 6)
	body := submitBody(t, hgr, 2, nil, nil)
	for _, site := range []faultinject.Site{faultinject.SiteJournalAppend, faultinject.SiteJournalReplay} {
		for _, kind := range faultinject.Kinds {
			t.Run(fmt.Sprintf("%s_%s", site, kind), func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "jobs.wal")
				// Seed a journal so replay faults have frames to hit.
				writeJournal(t, path,
					acceptedFor(t, "j-000000", 0, hgr, "seed-key"),
					journal.Record{Type: journal.TypeTerminal, ID: "j-000000", Seq: 0, Status: "completed"},
					acceptedFor(t, "j-000001", 1, hgr, ""),
				)
				s, err := New(Config{
					JournalPath: path, Workers: 2, MaxRetries: 2,
					Inject: &faultinject.Plan{Seed: 42, Entries: []faultinject.Entry{
						faultinject.On(site, kind, 2),
					}},
				})
				if err != nil {
					// An injected replay panic fails startup cleanly —
					// an acceptable, explicit outcome.
					if site != faultinject.SiteJournalReplay || kind != faultinject.KindPanic {
						t.Fatalf("New: %v", err)
					}
					return
				}
				hs := newUnmanagedServer(s)
				defer hs.Close()
				for i := 0; i < 3; i++ {
					code, v, _ := postJob(t, hs.URL, body)
					// Append faults may shed submissions with 503; that
					// is the degraded-but-correct mode.
					if code == http.StatusAccepted {
						waitTerminal(t, hs.URL, v.ID)
					} else if code != http.StatusServiceUnavailable {
						t.Fatalf("submission %d = %d, want 202 or 503", i, code)
					}
				}
				if err := s.Close(); err != nil {
					t.Fatalf("Close: %v", err)
				}
				checkLedger(t, s)
				if _, _, err := journal.Load(path, nil); err != nil {
					t.Errorf("journal unloadable after sweep: %v", err)
				}
			})
		}
	}
}

// TestReplayRemarshaledJournal replays a journal written by the server
// before it journaled request bodies as received (commit 41cb2d9), when
// the accepted record held the request re-marshaled: testdata holds
// j-000000 closed (completed) and j-000001 accepted but never started —
// a k=4 job with options, stats and an Idempotency-Key, submitted as
// the body in remarshaled-open-request.json. The restarted server must
// tombstone the first, run the second to completion, and serve the
// same result bytes as a fresh submission of that body.
func TestReplayRemarshaledJournal(t *testing.T) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "remarshaled.journal"))
	if err != nil {
		t.Fatal(err)
	}
	body, err := os.ReadFile(filepath.Join("testdata", "remarshaled-open-request.json"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "jobs.wal")
	if err := os.WriteFile(path, fixture, 0o644); err != nil {
		t.Fatal(err)
	}
	s, hs := newTestServer(t, Config{JournalPath: path, Workers: 1})
	if v, ok := s.Job("j-000000"); !ok || v.Status != StatusCompleted || !v.Recovered {
		t.Errorf("closed job j-000000 = %+v (found %v), want a completed tombstone", v, ok)
	}
	if jv := waitTerminal(t, hs.URL, "j-000001"); jv.Status != string(StatusCompleted) || !jv.Recovered {
		t.Fatalf("open job j-000001 = status %q recovered %v, want completed/true", jv.Status, jv.Recovered)
	}
	recovered, _ := getResult(t, hs.URL, "j-000001")
	checkLedger(t, s)

	// The journaled Idempotency-Key still names the recovered job.
	if code, v, replay := postJobIdem(t, hs.URL, body, "fixture-b"); code != http.StatusOK || v.ID != "j-000001" || replay != "replay" {
		t.Errorf("idempotent resubmission = %d %q %q, want 200 j-000001 replay", code, v.ID, replay)
	}

	_, fresh := newTestServer(t, Config{Workers: 1, CacheCap: -1})
	code, v, data := postJob(t, fresh.URL, body)
	if code != http.StatusAccepted {
		t.Fatalf("fresh submission: %d: %s", code, data)
	}
	if jv := waitTerminal(t, fresh.URL, v.ID); jv.Status != string(StatusCompleted) {
		t.Fatalf("fresh job ended %q", jv.Status)
	}
	if want, _ := getResult(t, fresh.URL, v.ID); !bytes.Equal(recovered, want) {
		t.Errorf("recovered result differs from a fresh submission's:\n%s\nwant\n%s", recovered, want)
	}
}

// TestJournalReplayIgnoresIntraParallelism replays a journal written
// by the server while Options.IntraParallelism still sized a worker
// pool (commit f0e244d): testdata holds one open k=2 job, accepted and
// never started, submitted with Idempotency-Key "intra-fixture" as the
// body in intra-parallelism-open-request.json, whose options carry
// "intra_parallelism": 2. The key is accepted and ignored now, so the
// restarted server must run the job to completion, serve the result
// bytes of a fresh submission without the key, and still answer the
// Idempotency-Key with the recovered job.
func TestJournalReplayIgnoresIntraParallelism(t *testing.T) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "intra-parallelism.journal"))
	if err != nil {
		t.Fatal(err)
	}
	body, err := os.ReadFile(filepath.Join("testdata", "intra-parallelism-open-request.json"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "jobs.wal")
	if err := os.WriteFile(path, fixture, 0o644); err != nil {
		t.Fatal(err)
	}
	s, hs := newTestServer(t, Config{JournalPath: path, Workers: 1})
	if jv := waitTerminal(t, hs.URL, "j-000000"); jv.Status != string(StatusCompleted) || !jv.Recovered {
		t.Fatalf("open job j-000000 = status %q recovered %v, want completed/true", jv.Status, jv.Recovered)
	}
	recovered, _ := getResult(t, hs.URL, "j-000000")
	checkLedger(t, s)
	if code, v, replay := postJobIdem(t, hs.URL, body, "intra-fixture"); code != http.StatusOK || v.ID != "j-000000" || replay != "replay" {
		t.Errorf("idempotent resubmission = %d %q %q, want 200 j-000000 replay", code, v.ID, replay)
	}

	var req map[string]any
	if err := json.Unmarshal(body, &req); err != nil {
		t.Fatal(err)
	}
	opts := req["options"].(map[string]any)
	if _, ok := opts["intra_parallelism"]; !ok {
		t.Fatal("fixture request carries no intra_parallelism")
	}
	delete(opts, "intra_parallelism")
	plain, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	_, fresh := newTestServer(t, Config{Workers: 1, CacheCap: -1})
	code, v, data := postJob(t, fresh.URL, plain)
	if code != http.StatusAccepted {
		t.Fatalf("fresh submission: %d: %s", code, data)
	}
	if jv := waitTerminal(t, fresh.URL, v.ID); jv.Status != string(StatusCompleted) {
		t.Fatalf("fresh job ended %q", jv.Status)
	}
	if want, _ := getResult(t, fresh.URL, v.ID); !bytes.Equal(recovered, want) {
		t.Errorf("recovered result differs from a fresh submission without the key:\n%s\nwant\n%s", recovered, want)
	}
}

// TestJournalKeepsRequestAsReceived: the accepted record carries the
// submitted body itself — case-variant keys and all, compacted by the
// frame encoding — not a re-encoding of the decoded request.
func TestJournalKeepsRequestAsReceived(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.wal")
	s, err := New(Config{JournalPath: path, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	body := "{ \"HGR\" : " + jsonString(testHGR(t, 4, 4)) + ",\n  \"K\" : 4, \"options\": { \"starts\": 2 } }\n"
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(body)))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("POST: %d: %s", rec.Code, rec.Body.Bytes())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	recs, _, err := journal.Load(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := json.Compact(&want, []byte(body)); err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 || recs[0].Type != journal.TypeAccepted || !bytes.Equal(recs[0].Request, want.Bytes()) {
		t.Fatalf("journal starts %+v, want an accepted record with request %s", recs[:min(1, len(recs))], want.Bytes())
	}
}
