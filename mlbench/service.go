package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mlpart"
	"mlpart/internal/server"
	"mlpart/internal/telemetry"
)

// The service under test: journal on, the default result cache (256
// entries), the batch lane for jobs of at most batchPinLimit pins, and
// the default executor counts (Workers min(4, GOMAXPROCS), one batch
// worker). clients closed-loop clients drive it, each over one
// keep-alive connection, so the load stays within two cores.
const (
	batchPinLimit = 4000
	clients       = 2
)

// service is an in-process mlpartd behind a loopback listener.
type service struct {
	srv    *server.Server
	hs     *http.Server
	served chan error
	base   string
	dir    string
	// appends counts durable journal appends through the server's
	// public append hook.
	appends atomic.Int64
}

// startService starts a server with a fresh journal under workdir.
func startService(workdir string) (*service, error) {
	dir, err := os.MkdirTemp(workdir, "service-")
	if err != nil {
		return nil, err
	}
	s := &service{dir: dir, served: make(chan error, 1)}
	s.srv, err = server.New(server.Config{
		JournalPath:       filepath.Join(dir, "journal"),
		JournalAppendHook: func(int) { s.appends.Add(1) },
		BatchPinLimit:     batchPinLimit,
	})
	if err != nil {
		return nil, errors.Join(err, os.RemoveAll(dir))
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, errors.Join(err, s.srv.Close(), os.RemoveAll(dir))
	}
	s.base = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: s.srv.Handler()}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// close stops the listener and the server, then removes the journal.
func (s *service) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return errors.Join(err, s.srv.Close(), os.RemoveAll(s.dir))
}

// client is one closed-loop client with its own single connection.
type client struct {
	base string
	tr   *http.Transport
	hc   *http.Client
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{base: base, tr: tr, hc: &http.Client{Transport: tr, Timeout: 2 * time.Minute}}
}

// readBody reads and closes resp's body, requiring status want.
func readBody(resp *http.Response, want int) ([]byte, error) {
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s: status %d, want %d: %s", resp.Request.URL.Path, resp.StatusCode, want, bytes.TrimSpace(body))
	}
	return body, nil
}

// jobTimes are the client-side timestamps of one job.
type jobTimes struct {
	post, accepted, started, terminal, resultStart, done time.Time
	batched                                              bool
}

// job submits body, follows the job's event stream to its terminal
// event and fetches the result document.
func (c *client) job(body []byte) (jobTimes, []byte, error) {
	var t jobTimes
	t.post = time.Now()
	resp, err := c.hc.Post(c.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return t, nil, err
	}
	data, err := readBody(resp, http.StatusAccepted)
	if err != nil {
		return t, nil, err
	}
	t.accepted = time.Now()
	var v struct {
		ID      string `json:"id"`
		Batched bool   `json:"batched"`
	}
	if err := json.Unmarshal(data, &v); err != nil {
		return t, nil, fmt.Errorf("job view: %w", err)
	}
	t.batched = v.Batched
	status, err := c.follow(v.ID, &t)
	if err != nil {
		return t, nil, fmt.Errorf("job %s events: %w", v.ID, err)
	}
	if status != server.StatusCompleted {
		return t, nil, fmt.Errorf("job %s ended %s", v.ID, status)
	}
	t.resultStart = time.Now()
	resp, err = c.hc.Get(c.base + "/v1/jobs/" + v.ID + "/result")
	if err != nil {
		return t, nil, err
	}
	res, err := readBody(resp, http.StatusOK)
	t.done = time.Now()
	return t, res, err
}

// follow reads the job's SSE stream until its terminal event, stamping
// the arrival of the started and terminal events.
func (c *client) follow(id string, t *jobTimes) (server.Status, error) {
	resp, err := c.hc.Get(c.base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("status %d", resp.StatusCode)
	}
	br := bufio.NewReader(resp.Body)
	var p server.SSEParser
	for {
		f, err := server.ReadSSEFrame(br, &p)
		if err != nil {
			return "", fmt.Errorf("stream ended before a terminal event: %w", err)
		}
		if f.Event == "started" {
			t.started = time.Now()
		}
		if st := server.Status(f.Event); st.Terminal() {
			t.terminal = time.Now()
			// Drain the rest of the stream so the connection is reused.
			_, err := io.Copy(io.Discard, br)
			return st, err
		}
	}
}

// jobRequest is the POST /v1/jobs document.
type jobRequest struct {
	HGR     string          `json:"hgr"`
	K       int             `json:"k"`
	Options json.RawMessage `json:"options"`
}

func requestBody(c circuit, o op) ([]byte, error) {
	opts, err := o.opt.CanonicalJSON()
	if err != nil {
		return nil, err
	}
	return json.Marshal(jobRequest{HGR: c.hgr, K: o.k, Options: opts})
}

// verifyResult checks a result document against the client's own copy
// of the circuit and returns the op's objective.
func verifyResult(h *mlpart.Hypergraph, o op, body []byte) (int, error) {
	var r struct {
		K          int     `json:"k"`
		Cut        int     `json:"cut"`
		SumDegrees int     `json:"sum_degrees"`
		Partition  []int32 `json:"partition"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return 0, fmt.Errorf("result document: %w", err)
	}
	return verify(h, o.k, &mlpart.Partition{Part: r.Partition, K: r.K}, r.Cut, r.SumDegrees)
}

// warmUp runs the workload's set-up jobs through one client.
func (s *service) warmUp(w workload) error {
	warm, err := w.warmCircuits()
	if err != nil {
		return err
	}
	cl := newClient(s.base)
	defer cl.tr.CloseIdleConnections()
	for j, o := range w.warmOps(len(warm)) {
		body, err := requestBody(warm[o.circuit], o)
		if err != nil {
			return err
		}
		_, res, err := cl.job(body)
		if err == nil {
			_, err = verifyResult(warm[o.circuit].h, o, res)
		}
		if err != nil {
			return fmt.Errorf("warm-up job %d: %w", j, err)
		}
	}
	return nil
}

// loadStats is what one load phase observed.
type loadStats struct {
	wall time.Duration
	// submitted counts jobs the service accepted, completed the ones
	// that passed their checks.
	submitted, completed int
	// objectives holds the objectives of ops [0, minOps); cycleRSS is
	// the peak resident set size when the last of them completed.
	objectives []int
	cycleRSS   int64
}

// load runs the closed-loop clients over the workload's op list until
// d has passed and ops [0, minOps) are done. Every result is verified;
// a resubmitted request's result body must equal the first
// computation's byte for byte. tr, when non-nil, receives one span tree
// per job.
func (s *service) load(w workload, circs []circuit, seed int64, minOps int, d time.Duration, rep *report, tr *tracer) loadStats {
	st := loadStats{objectives: make([]int, minOps)}
	pending := minOps
	sums := make(map[int][sha256.Size]byte)
	var mu sync.Mutex
	var next atomic.Int64
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		cl := newClient(s.base)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer cl.tr.CloseIdleConnections()
			for {
				i := int(next.Add(1) - 1)
				if i >= minOps && time.Since(t0) >= d {
					return
				}
				o := w.op(seed, i)
				body, err := requestBody(circs[o.circuit], o)
				var t jobTimes
				var res []byte
				if err == nil {
					t, res, err = cl.job(body)
				}
				obj := 0
				if err == nil {
					obj, err = verifyResult(circs[o.circuit].h, o, res)
				}
				if err != nil {
					err = fmt.Errorf("job for op %d: %w", i, err)
				}
				rep.op(err)
				mu.Lock()
				if !t.accepted.IsZero() {
					st.submitted++
				}
				if i < minOps {
					if pending--; pending == 0 {
						st.cycleRSS = peakRSS()
					}
				}
				if err == nil {
					st.completed++
					sums[i] = sha256.Sum256(res)
					if i < minOps {
						st.objectives[i] = obj
					}
					tr.job(i, t)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	st.wall = time.Since(t0)

	done := make([]int, 0, len(sums))
	for i := range sums {
		done = append(done, i)
	}
	sort.Ints(done)
	for _, i := range done {
		o := w.op(seed, i)
		if first, ok := sums[o.repeatOf]; ok && first != sums[i] {
			rep.check(fmt.Errorf("job %d resubmits job %d's request but its result body differs", i, o.repeatOf))
		}
	}
	return st
}

// ledger fetches the /statsz service ledger.
func (s *service) ledger() (telemetry.ServiceReport, error) {
	cl := newClient(s.base)
	defer cl.tr.CloseIdleConnections()
	var r telemetry.ServiceReport
	resp, err := cl.hc.Get(s.base + "/statsz")
	if err != nil {
		return r, err
	}
	body, err := readBody(resp, http.StatusOK)
	if err != nil {
		return r, err
	}
	return r, json.Unmarshal(body, &r)
}

// checkLedger checks the ledger after a load phase: every accepted job
// completed, and the phase accepted exactly the jobs the clients saw
// accepted.
func checkLedger(before, after telemetry.ServiceReport, submitted int) error {
	a := after
	terminal := a.Completed + a.Failed + a.Cancelled + a.DeadlineExceeded + a.Drained
	switch {
	case a.Accepted != terminal+a.Queued+a.Running:
		return fmt.Errorf("ledger unbalanced: accepted %d, terminal %d, queued %d, running %d", a.Accepted, terminal, a.Queued, a.Running)
	case a.Queued != 0 || a.Running != 0:
		return fmt.Errorf("ledger shows %d queued and %d running jobs after the load", a.Queued, a.Running)
	case a.Completed != a.Accepted:
		return fmt.Errorf("ledger: %d of %d accepted jobs completed", a.Completed, a.Accepted)
	case a.Batched > a.Accepted || (a.Batched > 0 && a.BatchFlushes == 0):
		return fmt.Errorf("ledger: batched %d, accepted %d, batch flushes %d", a.Batched, a.Accepted, a.BatchFlushes)
	case a.Accepted-before.Accepted != int64(submitted):
		return fmt.Errorf("ledger accepted %d jobs during the load, clients saw %d accepted", a.Accepted-before.Accepted, submitted)
	}
	return nil
}

// serviceWorkload drives the in-process service with the closed-loop
// clients for the configured duration and at least one full cycle.
func serviceWorkload(w workload, cfg config, rep *report) error {
	type state struct {
		svc   *service
		circs []circuit
	}
	st, setupS, err := setUp(rep.log, func() (state, error) {
		circs, err := w.genCircuits(cfg.seed)
		if err != nil {
			return state{}, err
		}
		svc, err := startService(cfg.workdir)
		if err != nil {
			return state{}, err
		}
		if err := svc.warmUp(w); err != nil {
			return state{}, errors.Join(err, svc.close())
		}
		return state{svc: svc, circs: circs}, nil
	}, func(s state) { rep.check(s.svc.close()) })
	if err != nil {
		return err
	}
	before, err := st.svc.ledger()
	if err != nil {
		return errors.Join(err, st.svc.close())
	}
	mem := startMem()
	ls := st.svc.load(w, st.circs, cfg.seed, w.cycle, cfg.duration(), rep, nil)
	mem.stop(ls.completed)
	mem.cycleRSS = ls.cycleRSS
	after, err := st.svc.ledger()
	if err == nil {
		err = checkLedger(before, after, ls.submitted)
	}
	rep.check(err)
	rep.check(st.svc.close())

	rep.add("setup_s", setupS, "s", 0)
	rep.add("cut_mean", meanInt(ls.objectives), "nets", 0)
	mem.add(rep)
	rep.setDigest(ls.objectives)
	return nil
}
