package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"time"

	"mlpart"
	"mlpart/internal/faultinject"
	"mlpart/internal/hypergraph"
	"mlpart/internal/telemetry"
)

// jobRequest is the POST /v1/jobs submission document.
type jobRequest struct {
	// HGR is the hypergraph in hMETIS text format.
	HGR hgrText `json:"hgr"`
	// K is the block count: 2 (bipartition, the default) or 4
	// (quadrisection).
	K int `json:"k,omitempty"`
	// Options is the canonical options document (see
	// mlpart.ParseOptionsJSON); absent or null selects the defaults.
	Options json.RawMessage `json:"options,omitempty"`
	// TimeoutMS is the per-job deadline in milliseconds; 0 selects
	// the server default, and values above the server maximum are
	// rejected.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Stats asks the job to collect a telemetry report, served in the
	// job view's stats field.
	Stats bool `json:"stats,omitempty"`
}

// blocks returns the request's block count: k, with 0 selecting 2.
// options checks it, with the entry point's error.
func (r *jobRequest) blocks() int {
	if r.K == 0 {
		return 2
	}
	return r.K
}

// options decodes the request's options document — absent or null
// selects the defaults — and checks it for a k-way run with
// Options.Validate, so admission and recovery refuse exactly the
// options the entry point would.
func (r *jobRequest) options(k int) (mlpart.Options, error) {
	opt := mlpart.Options{}
	if len(r.Options) > 0 && string(r.Options) != "null" {
		var err error
		if opt, err = mlpart.ParseOptionsJSON(r.Options); err != nil {
			return opt, err
		}
	}
	return opt, opt.Validate(k)
}

// hgrText is a request's hgr string, kept as the bytes encoding/json
// unquoted it into — or, for a string without escapes, as a slice of
// the body itself — so the text is never copied into a Go string. It
// is a struct so that "hgr": null leaves it unchanged, as it leaves a
// string.
type hgrText struct{ text []byte }

// UnmarshalText keeps text without copying it: encoding/json passes
// either a slice of its input, the request body that nothing writes
// to once read, or a fresh unquote buffer.
func (t *hgrText) UnmarshalText(text []byte) error {
	t.text = text
	return nil
}

// jobRequestFields are jobRequest's JSON names, read from its tags.
var jobRequestFields = func() []string {
	t := reflect.TypeFor[jobRequest]()
	names := make([]string, t.NumField())
	for i := range names {
		names[i], _, _ = strings.Cut(t.Field(i).Tag.Get("json"), ",")
	}
	return names
}()

// anyValue is a JSON value the key pass of decodeJobRequest skips
// without copying it.
type anyValue struct{}

func (*anyValue) UnmarshalJSON([]byte) error { return nil }

// readBody reads a request body into one buffer. A Content-Length
// within limit sizes it exactly; without one the buffer grows as the
// body arrives. body must already be bounded by limit (MaxBytesReader),
// so a declared length never makes it allocate more than limit.
func readBody(body io.Reader, contentLength, limit int64) ([]byte, error) {
	size := int64(512)
	if contentLength >= 0 && contentLength <= limit {
		size = contentLength
	}
	buf := make([]byte, 0, size)
	for {
		if len(buf) == cap(buf) {
			// Full: probe for one more byte before growing, so a body
			// that matches its declared length is never copied.
			var probe [1]byte
			if n, err := io.ReadFull(body, probe[:]); n == 0 {
				if err == io.EOF {
					return buf, nil
				}
				return nil, err
			}
			buf = append(buf, probe[0])
			continue
		}
		n, err := body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// decodeJobRequest decodes a POST /v1/jobs body. It accepts exactly
// what json.Decoder with DisallowUnknownFields accepts as the body's
// only value: one JSON value, white space after it, and only keys that
// name a jobRequest field exactly or under Unicode case folding — the
// way encoding/json matches them. A first pass collects the keys
// without copying a value; the second decodes the fields.
func decodeJobRequest(body []byte) (jobRequest, error) {
	var keys map[string]anyValue
	if err := json.Unmarshal(body, &keys); err != nil {
		return jobRequest{}, err
	}
	var unknown []string
	for key := range keys {
		if !slices.ContainsFunc(jobRequestFields, func(f string) bool { return strings.EqualFold(key, f) }) {
			unknown = append(unknown, key)
		}
	}
	if len(unknown) > 0 {
		return jobRequest{}, fmt.Errorf("json: unknown field %q", slices.Min(unknown))
	}
	var req jobRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return jobRequest{}, err
	}
	return req, nil
}

// readJobRequest reads and decodes a POST /v1/jobs body of at most
// limit bytes, returning the request and the body as received.
func readJobRequest(w http.ResponseWriter, r *http.Request, limit int64) (jobRequest, []byte, error) {
	body, err := readBody(http.MaxBytesReader(w, r.Body, limit), r.ContentLength, limit)
	if err != nil {
		return jobRequest{}, nil, err
	}
	req, err := decodeJobRequest(body)
	return req, body, err
}

// errorBody is the JSON error envelope every non-2xx response uses.
type errorBody struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

func writeError(w http.ResponseWriter, status int, code, msg string) {
	var b errorBody
	b.Error.Code = code
	b.Error.Message = msg
	writeJSON(w, status, b)
}

// writeJSON writes v as one line of compact JSON. Every reply goes
// through it, so equal values give byte-identical replies.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v) // after WriteHeader there is no better report than the broken pipe itself
}

// Handler returns the service's HTTP API:
//
//	POST   /v1/jobs             submit a job (202 + job view, Location header).
//	                            An Idempotency-Key request header makes the
//	                            submission replay-safe: a duplicate returns the
//	                            original job (200 + X-Mlpartd-Idempotent: replay),
//	                            a reuse for a different request is a 409. Keys
//	                            are journaled, so dedup survives restarts.
//	GET    /v1/jobs/{id}        job state (?wait_ms=N blocks for a terminal state)
//	DELETE /v1/jobs/{id}        cancel a job
//	GET    /v1/jobs/{id}/result deterministic result document (X-Mlpartd-Cache: hit|miss)
//	GET    /v1/jobs/{id}/events live job lifecycle stream (Server-Sent Events;
//	                            Last-Event-ID resumes after the named event id)
//	GET    /healthz             liveness (always 200 while the process serves)
//	GET    /readyz              readiness (503 once draining)
//	GET    /statsz              service counters (schema mlpartd-stats/1);
//	                            ?schema=bench serves the cumulative per-stage
//	                            timing aggregates as mlpart-bench/1
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGetJob)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancelJob)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleGetResult)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /statsz", s.handleStatsz)
	return mux
}

// handleSubmit is the admission path. The recover barrier is the
// fault-isolation boundary: a panic anywhere in parsing or admission
// (including the server.admit fault site) turns into a 500 for this
// submission only — the process and every other job are unaffected.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	defer func() {
		if v := recover(); v != nil {
			writeError(w, http.StatusInternalServerError, "internal",
				fmt.Sprintf("submission failed: %v", v))
		}
	}()

	req, body, err := readJobRequest(w, r, s.cfg.MaxBodyBytes)
	if err != nil {
		s.stats.RejectInvalid()
		writeError(w, http.StatusBadRequest, "bad_request", "invalid job request: "+err.Error())
		return
	}

	k := req.blocks()
	if req.TimeoutMS < 0 {
		s.stats.RejectInvalid()
		writeError(w, http.StatusBadRequest, "bad_request", fmt.Sprintf("negative timeout_ms %d", req.TimeoutMS))
		return
	}
	// Compare in milliseconds: converting first would wrap a huge
	// timeout_ms around to a small or negative Duration.
	if req.TimeoutMS > s.cfg.MaxTimeout.Milliseconds() {
		s.stats.RejectInvalid()
		writeError(w, http.StatusBadRequest, "bad_request",
			fmt.Sprintf("timeout_ms %d exceeds the server maximum %d", req.TimeoutMS, s.cfg.MaxTimeout.Milliseconds()))
		return
	}
	timeout := time.Duration(req.TimeoutMS) * time.Millisecond

	opt, err := req.options(k)
	if err != nil {
		s.stats.RejectInvalid()
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	fp, err := opt.Fingerprint()
	if err != nil {
		s.stats.RejectInvalid()
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}

	if len(bytes.TrimSpace(req.HGR.text)) == 0 {
		s.stats.RejectInvalid()
		writeError(w, http.StatusBadRequest, "bad_request", "missing hgr")
		return
	}
	h, err := hypergraph.ReadHGRText(req.HGR.text, s.cfg.Limits)
	if err != nil {
		s.stats.RejectInvalid()
		writeError(w, http.StatusBadRequest, "bad_request", "invalid hgr: "+err.Error())
		return
	}

	key := cacheKey{content: h.ContentHash(), fingerprint: fp, k: k}

	// The journal stores the body as received with the accepted
	// record: it decoded to this request above, and decodes the same
	// way when recovery rebuilds and re-runs the job after a crash.
	idemKey := r.Header.Get("Idempotency-Key")
	v, replayed, rej := s.admitJob(h, k, opt, timeout, req.Stats, key, idemKey, body)
	if rej != nil {
		if rej.status == http.StatusTooManyRequests || rej.status == http.StatusServiceUnavailable {
			w.Header().Set("Retry-After", retryAfterSecs)
		}
		writeError(w, rej.status, rej.code, rej.msg)
		return
	}

	w.Header().Set("Location", "/v1/jobs/"+v.ID)
	if replayed {
		// Duplicate of an earlier submission with the same
		// Idempotency-Key: answer with the original job, 200 not 202 —
		// nothing new was admitted.
		w.Header().Set("X-Mlpartd-Idempotent", "replay")
		writeJSON(w, http.StatusOK, v)
		return
	}
	writeJSON(w, http.StatusAccepted, v)
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if waitMS := r.URL.Query().Get("wait_ms"); waitMS != "" {
		ms, err := strconv.ParseInt(waitMS, 10, 64)
		if err != nil || ms < 0 {
			writeError(w, http.StatusBadRequest, "bad_request", "invalid wait_ms")
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), time.Duration(ms)*time.Millisecond)
		defer cancel()
		v, ok, err := s.WaitJob(ctx, id)
		if !ok {
			writeError(w, http.StatusNotFound, "not_found", "no such job "+id)
			return
		}
		if err != nil {
			// Wait expired: fall through to the current snapshot.
			v, _ = s.Job(id)
		}
		writeJSON(w, http.StatusOK, v)
		return
	}
	v, ok := s.Job(id)
	if !ok {
		writeError(w, http.StatusNotFound, "not_found", "no such job "+id)
		return
	}
	writeJSON(w, http.StatusOK, v)
}

func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	v, ok := s.Cancel(id)
	if !ok {
		writeError(w, http.StatusNotFound, "not_found", "no such job "+id)
		return
	}
	writeJSON(w, http.StatusOK, v)
}

// handleGetResult serves the deterministic result document. Cache
// provenance travels in the X-Mlpartd-Cache header, never the body,
// so hit and miss responses are byte-identical.
func (s *Server) handleGetResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	v, ok := s.Job(id)
	if !ok {
		writeError(w, http.StatusNotFound, "not_found", "no such job "+id)
		return
	}
	if !v.Status.Terminal() {
		writeError(w, http.StatusConflict, "not_ready", fmt.Sprintf("job %s is %s", id, v.Status))
		return
	}
	if v.Result == nil {
		writeError(w, http.StatusConflict, "no_result", fmt.Sprintf("job %s ended %s without a solution", id, v.Status))
		return
	}
	if v.CacheHit {
		w.Header().Set("X-Mlpartd-Cache", "hit")
	} else {
		w.Header().Set("X-Mlpartd-Cache", "miss")
	}
	writeJSON(w, http.StatusOK, v.Result)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte("ok\n"))
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.Draining() {
		w.Header().Set("Retry-After", retryAfterSecs)
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = w.Write([]byte("draining\n"))
		return
	}
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte("ready\n"))
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	switch schema := r.URL.Query().Get("schema"); schema {
	case "", "service", telemetry.ServiceSchemaVersion:
		rep := s.Stats()
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_ = rep.WriteJSON(w)
	case "bench", telemetry.BenchSchemaVersion:
		rep := s.stats.BenchSnapshot(time.Now().UTC().Format("2006-01-02"))
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_ = rep.WriteJSON(w)
	default:
		writeError(w, http.StatusBadRequest, "bad_request",
			fmt.Sprintf("unknown stats schema %q (want %q or %q)", schema,
				telemetry.ServiceSchemaVersion, telemetry.BenchSchemaVersion))
	}
}

// parseLastEventID reads the SSE resume header; 0 means "from the
// first event".
func parseLastEventID(r *http.Request) (int64, error) {
	lei := r.Header.Get("Last-Event-ID")
	if lei == "" {
		return 0, nil
	}
	v, err := strconv.ParseInt(lei, 10, 64)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("invalid Last-Event-ID %q", lei)
	}
	return v, nil
}

// jobEventData is the payload of a job lifecycle event.
type jobEventData struct {
	JobID  string `json:"job_id"`
	Status Status `json:"status"`
}

// closed reports whether c is closed.
func closed(c <-chan struct{}) bool {
	select {
	case <-c:
		return true
	default:
		return false
	}
}

// handleJobEvents streams one job's lifecycle events as Server-Sent
// Events. The stream is a function of the job's state, so nothing is
// stored or fanned out: queued is id 1 (a replayed tombstone has none),
// started follows if a worker ran the job, and the terminal event
// comes last and ends the stream. Every event goes through one
// Last-Event-ID filter, and the handler only waits on the job's
// started and done channels, so no reader can ever hold up a job. The
// terminal status is read without mu after receiving from done: it
// never changes once set. The recover barrier makes an injected
// server.events panic fail only this stream; an injected cancel cuts a
// live stream after the events so far (counted in events_dropped).
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	defer func() {
		if v := recover(); v != nil {
			writeError(w, http.StatusInternalServerError, "internal",
				fmt.Sprintf("event stream failed: %v", v))
		}
	}()
	id := r.PathValue("id")
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, "not_found", "no such job "+id)
		return
	}
	lastID, err := parseLastEventID(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	// The events fault site, derived from the job's admission sequence
	// like the job's own sites.
	cut := false
	if inj := s.cfg.Inject.NewInjector(j.seq); inj != nil {
		cut = inj.Fire(faultinject.SiteServerEvents) == faultinject.ActCancel
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "internal", "response writer cannot stream")
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	var evID int64
	emit := func(name string, st Status) bool {
		evID++
		if evID <= lastID {
			return true
		}
		data, err := json.Marshal(jobEventData{JobID: j.id, Status: st})
		if err != nil || writeSSE(w, evID, name, data) != nil {
			return false
		}
		fl.Flush()
		return true
	}
	// await waits until a or b is closed. It reports false when the
	// stream ends first: the client went away, or the stream was cut
	// before the job got there.
	await := func(a, b <-chan struct{}) bool {
		if cut {
			if closed(a) || closed(b) {
				return true
			}
			s.stats.EventDropped()
			return false
		}
		select {
		case <-a:
		case <-b:
		case <-r.Context().Done():
			return false
		}
		return true
	}
	if j.started != nil {
		if !emit("queued", StatusQueued) || !await(j.started, j.done) {
			return
		}
		// started is closed before done, so this sees every run.
		if closed(j.started) && !emit("started", StatusRunning) {
			return
		}
	}
	if await(j.done, nil) {
		emit(string(j.status), j.status)
	}
}
