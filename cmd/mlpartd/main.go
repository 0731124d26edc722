// Command mlpartd serves the ML multilevel partitioner as a
// fault-tolerant HTTP service with admission control, per-job
// deadlines, result caching, and graceful drain.
//
// Usage:
//
//	mlpartd [-addr :7997] [-queue 64] [-workers 0] [-cache 256]
//	        [-default-timeout 30s] [-max-timeout 5m] [-drain-timeout 10s]
//	        [-journal jobs.wal] [-addr-file path]
//	        [-crash-after-appends n]
//	        [-chaos site:kind:n[:start]] [-chaos-seed 1]
//	        [-smoke] [-in circuit.hgr]
//
// API (JSON):
//
//	POST   /v1/jobs             submit {"hgr": "...", "k": 2|4,
//	                            "options": {...}, "timeout_ms": n,
//	                            "stats": bool}; 202 + job document, or
//	                            429 (+Retry-After) when the admission
//	                            queue is full, 503 while draining.
//	GET    /v1/jobs/{id}        job state; ?wait_ms=N long-polls for a
//	                            terminal status.
//	DELETE /v1/jobs/{id}        cancel; the job keeps its best-so-far
//	                            solution.
//	GET    /v1/jobs/{id}/result deterministic result document
//	                            (X-Mlpartd-Cache: hit|miss).
//	GET    /v1/jobs/{id}/events live job lifecycle stream (SSE:
//	                            queued, started, terminal);
//	                            Last-Event-ID resumes.
//	GET    /healthz /readyz     liveness / readiness probes.
//	GET    /statsz              service counters, schema
//	                            mlpartd-stats/1 (pipe into statscheck);
//	                            ?schema=bench serves per-stage timing
//	                            aggregates in the mlpart-bench/1 schema.
//
// Each of the -workers executors owns one reusable workspace set
// (an mlpart.Session) and runs every job it dequeues on it, so a
// stream of small jobs does not regrow the pipeline's buffers per
// job. Reuse is invisible in results: result documents are
// byte-identical to a one-shot run, and a job that follows a panicked
// one on the same worker completes normally. Each job runs once; a
// failed job ends "failed" with a typed error report.
//
// SIGTERM or SIGINT starts a graceful drain: admission stops (503),
// in-flight and queued jobs get -drain-timeout to finish, stragglers
// are cancelled cooperatively into the "drained" status, and the
// final service stats are written to stdout before exit. Every
// accepted job reaches exactly one terminal status; the process
// always exits 0 on a clean drain.
//
// -smoke runs the self-test used by `make serve-smoke`: the daemon
// binds a loopback port and drives a real HTTP client through submit /
// wait / result, re-submitting to verify the cache hit returns a
// byte-identical result body. A burst of jobs with distinct seeds (so
// the result cache never collapses them) follows: one SSE consumer
// verifies the queued → started → completed event order and
// Last-Event-ID resume on a real socket, and /statsz is checked in
// both schemas. The daemon then delivers SIGTERM to itself to
// exercise the production drain path and prints the final stats JSON
// to stdout for statscheck.
//
// -journal makes accepted jobs crash-durable: each job gets two
// write-ahead journal records, an accepted record synced before the
// job is acknowledged and a terminal record when it ends. On startup
// the journal is replayed — accepted-but-unfinished jobs from a killed
// predecessor are re-run, closed jobs stay queryable, torn tails are
// truncated. See the README's "Crash recovery" section.
//
// Repeatable -chaos flags arm deterministic fault injection at the
// server.admit / server.job sites, the journal.append /
// journal.replay sites (torn writes, dying disks, corrupt replays),
// plus any pipeline site (which then fires inside every job) for
// chaos testing the recovery paths.
//
// Two flags exist purely for the process-kill crash harness
// (`make crash-smoke`): -addr-file writes the bound listen address to
// a file so the harness can find a :0 listener, and
// -crash-after-appends n SIGKILLs the process the moment the n-th
// journal record becomes durable — a deterministic stand-in for
// pulling the plug mid-burst.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"mlpart"
	"mlpart/internal/server"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "mlpartd:", err)
		os.Exit(1)
	}
}

// chaosFlags collects repeatable -chaos specs.
type chaosFlags []string

func (c *chaosFlags) String() string     { return strings.Join(*c, ",") }
func (c *chaosFlags) Set(v string) error { *c = append(*c, v); return nil }

func run() error {
	var (
		addr         = flag.String("addr", ":7997", "listen address")
		queue        = flag.Int("queue", 0, "admission queue depth (0 = default 64)")
		workers      = flag.Int("workers", 0, "concurrent job executors (0 = min(4, GOMAXPROCS))")
		cache        = flag.Int("cache", 0, "result cache entries (0 = default 256, negative disables)")
		defTimeout   = flag.Duration("default-timeout", 0, "per-job deadline when the submission names none (0 = default 30s)")
		maxTimeout   = flag.Duration("max-timeout", 0, "cap on client-requested deadlines (0 = default 5m)")
		drainTimeout = flag.Duration("drain-timeout", 0, "grace period for in-flight jobs on shutdown (0 = default 10s)")
		journalPath  = flag.String("journal", "", "write-ahead job journal path (empty disables crash durability)")
		addrFile     = flag.String("addr-file", "", "write the bound listen address to this file (crash-harness port discovery)")
		crashAfter   = flag.Int("crash-after-appends", 0, "SIGKILL self after the n-th durable journal append (crash harness only)")
		chaosSeed    = flag.Int64("chaos-seed", 1, "seed for probabilistic -chaos triggers")
		smoke        = flag.Bool("smoke", false, "run the loopback self-test and exit")
		in           = flag.String("in", "", "netlist for -smoke (hMETIS .hgr)")
	)
	var chaos chaosFlags
	flag.Var(&chaos, "chaos", "arm a fault: site:kind:n[:start] (repeatable)")
	flag.Parse()

	plan, err := mlpart.ParseFaultSpec(chaos, *chaosSeed)
	if err != nil {
		return err
	}
	cfg := server.Config{
		QueueDepth:     *queue,
		Workers:        *workers,
		CacheCap:       *cache,
		DefaultTimeout: *defTimeout,
		MaxTimeout:     *maxTimeout,
		DrainTimeout:   *drainTimeout,
		JournalPath:    *journalPath,
		Inject:         plan,
	}
	if *crashAfter > 0 {
		if *journalPath == "" {
			return fmt.Errorf("-crash-after-appends requires -journal")
		}
		n := *crashAfter
		cfg.JournalAppendHook = func(got int) {
			if got == n {
				// The harness's plug-pull: die with no cleanup the
				// instant the n-th record is durable. SIGKILL cannot be
				// caught, so nothing below this line runs.
				_ = syscall.Kill(os.Getpid(), syscall.SIGKILL)
			}
		}
	}
	srv, err := server.New(cfg)
	if err != nil {
		return err
	}
	if *journalPath != "" {
		rep := srv.Stats()
		fmt.Fprintf(os.Stderr, "mlpartd: journal %s replayed: %d recovered, %d already terminal, %d torn tails\n",
			*journalPath, rep.Recovered, rep.ReplayedTerminal, rep.TornTailTruncated)
	}

	listenAddr := *addr
	if *smoke {
		listenAddr = "127.0.0.1:0" // loopback self-test: never a public port
	}
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "mlpartd: listening on %s\n", ln.Addr())
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			return fmt.Errorf("write -addr-file: %w", err)
		}
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)

	smokeErr := make(chan error, 1)
	if *smoke {
		go func() { smokeErr <- runSmoke(ln.Addr().String(), *in) }()
	}

	var clientErr error
	select {
	case got := <-sig:
		fmt.Fprintf(os.Stderr, "mlpartd: %v: draining\n", got)
	case err := <-serveErr:
		return fmt.Errorf("serve: %w", err)
	case clientErr = <-smokeErr:
		if clientErr != nil {
			// The self-test failed before reaching its SIGTERM; still
			// drain so every accepted job terminates cleanly.
			fmt.Fprintf(os.Stderr, "mlpartd: smoke failed, draining: %v\n", clientErr)
		} else {
			// The self-test SIGTERMs itself; wait for it here so the
			// drain goes through the production signal path.
			got := <-sig
			fmt.Fprintf(os.Stderr, "mlpartd: %v: draining\n", got)
		}
	}

	// Stop accepting connections, then drain the job layer: admission
	// is already refusing (503) the moment Drain is entered.
	dctx, dcancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer dcancel()
	if err := srv.Drain(dctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer scancel()
	_ = hs.Shutdown(sctx)

	// The final stats snapshot is the drain's flight recorder; -smoke
	// pipes it into statscheck.
	rep := srv.Stats()
	if err := rep.WriteJSON(os.Stdout); err != nil {
		return err
	}
	return clientErr
}

// runSmoke drives the daemon through real client flows on addr —
// the probes, a byte-identical cache hit, then a streamed burst — and
// SIGTERMs the process to exercise the production drain.
func runSmoke(addr, in string) error {
	if in == "" {
		return fmt.Errorf("-smoke requires -in")
	}
	hgr, err := os.ReadFile(in)
	if err != nil {
		return err
	}
	base := "http://" + addr
	client := &http.Client{Timeout: 30 * time.Second}

	for _, probe := range []string{"/healthz", "/readyz"} {
		if err := expectOK(client, base+probe); err != nil {
			return err
		}
	}

	body, err := json.Marshal(map[string]any{
		"hgr":     string(hgr),
		"k":       2,
		"options": map[string]any{"seed": 1997, "starts": 2},
	})
	if err != nil {
		return err
	}

	first, err := smokeJob(client, base, body)
	if err != nil {
		return fmt.Errorf("first job: %w", err)
	}
	second, err := smokeJob(client, base, body)
	if err != nil {
		return fmt.Errorf("second job: %w", err)
	}
	if second.cache != "hit" {
		return fmt.Errorf("second submission: X-Mlpartd-Cache = %q, want \"hit\"", second.cache)
	}
	if !bytes.Equal(first.result, second.result) {
		return fmt.Errorf("cache hit result differs from computed result (%d vs %d bytes)", len(first.result), len(second.result))
	}
	fmt.Fprintf(os.Stderr, "mlpartd: smoke ok: %d-byte result, cache %s then %s\n",
		len(first.result), first.cache, second.cache)

	if err := streamSmoke(client, base, hgr); err != nil {
		return err
	}
	return syscall.Kill(os.Getpid(), syscall.SIGTERM)
}

type smokeResult struct {
	result []byte
	cache  string
}

// smokeJob submits body, waits for a terminal status, and fetches the
// result document.
func smokeJob(client *http.Client, base string, body []byte) (smokeResult, error) {
	resp, err := client.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return smokeResult{}, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return smokeResult{}, err
	}
	if resp.StatusCode != http.StatusAccepted {
		return smokeResult{}, fmt.Errorf("submit: %s: %s", resp.Status, data)
	}
	var v struct {
		ID     string `json:"id"`
		Status string `json:"status"`
	}
	if err := json.Unmarshal(data, &v); err != nil {
		return smokeResult{}, err
	}

	resp, err = client.Get(base + "/v1/jobs/" + v.ID + "?wait_ms=25000")
	if err != nil {
		return smokeResult{}, err
	}
	data, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return smokeResult{}, err
	}
	if err := json.Unmarshal(data, &v); err != nil {
		return smokeResult{}, err
	}
	if v.Status != "completed" {
		return smokeResult{}, fmt.Errorf("job %s ended %q, want completed: %s", v.ID, v.Status, data)
	}

	resp, err = client.Get(base + "/v1/jobs/" + v.ID + "/result")
	if err != nil {
		return smokeResult{}, err
	}
	res, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return smokeResult{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return smokeResult{}, fmt.Errorf("result: %s: %s", resp.Status, res)
	}
	return smokeResult{result: res, cache: resp.Header.Get("X-Mlpartd-Cache")}, nil
}

func expectOK(client *http.Client, url string) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", url, resp.Status)
	}
	return nil
}

// streamSmoke submits a burst of jobs with distinct seeds and checks
// the job event stream (lifecycle order and Last-Event-ID resume) and
// /statsz in both schemas.
func streamSmoke(client *http.Client, base string, hgr []byte) error {
	// Burst: distinct seeds give distinct fingerprints, so the result
	// cache never collapses the jobs and every one computes.
	const burst = 8
	ids := make([]string, 0, burst)
	for i := 0; i < burst; i++ {
		k := 2
		if i%2 == 1 {
			k = 4
		}
		body, err := json.Marshal(map[string]any{
			"hgr":     string(hgr),
			"k":       k,
			"options": map[string]any{"seed": 100 + i, "starts": 2},
		})
		if err != nil {
			return err
		}
		resp, err := client.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusAccepted {
			return fmt.Errorf("submit %d: %s: %s", i, resp.Status, data)
		}
		var v struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(data, &v); err != nil {
			return err
		}
		ids = append(ids, v.ID)
	}

	// One SSE consumer on the first job. Whether it attaches live or
	// after the fact, replay + live must yield the same ordered stream:
	// queued first, started before the terminal, ids gapless from 1.
	frames, err := consumeJobEvents(base, ids[0], 0)
	if err != nil {
		return fmt.Errorf("job events: %w", err)
	}
	if err := checkLifecycle(frames, 1); err != nil {
		return fmt.Errorf("job %s events: %w", ids[0], err)
	}

	// Last-Event-ID resume: re-subscribing past the first event must
	// replay exactly the suffix.
	resumed, err := consumeJobEvents(base, ids[0], frames[0].ID)
	if err != nil {
		return fmt.Errorf("resume: %w", err)
	}
	if len(resumed) != len(frames)-1 || resumed[0].ID != frames[0].ID+1 {
		return fmt.Errorf("resume after id %d: got %d frames starting at id %d, want %d starting at %d",
			frames[0].ID, len(resumed), resumed[0].ID, len(frames)-1, frames[0].ID+1)
	}

	// Every job in the burst must complete with a servable result.
	for i, id := range ids {
		resp, err := client.Get(base + "/v1/jobs/" + id + "?wait_ms=25000")
		if err != nil {
			return err
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		var v struct {
			Status string `json:"status"`
		}
		if err := json.Unmarshal(data, &v); err != nil {
			return err
		}
		if v.Status != "completed" {
			return fmt.Errorf("job %s (burst %d) ended %q, want completed: %s", id, i, v.Status, data)
		}
		if err := expectOK(client, base+"/v1/jobs/"+id+"/result"); err != nil {
			return err
		}
	}

	// /statsz must answer in both schemas.
	var bench struct {
		Schema  string           `json:"schema"`
		Entries []map[string]any `json:"entries"`
	}
	if err := getJSON(client, base+"/statsz?schema=bench", &bench); err != nil {
		return err
	}
	if bench.Schema != "mlpart-bench/1" {
		return fmt.Errorf("/statsz?schema=bench: schema %q, want mlpart-bench/1", bench.Schema)
	}
	if len(bench.Entries) == 0 {
		return fmt.Errorf("/statsz?schema=bench: no entries after %d completed jobs", burst)
	}
	var svc struct {
		Schema string `json:"schema"`
	}
	if err := getJSON(client, base+"/statsz", &svc); err != nil {
		return err
	}
	if svc.Schema != "mlpartd-stats/1" {
		return fmt.Errorf("/statsz: schema %q, want mlpartd-stats/1", svc.Schema)
	}

	fmt.Fprintf(os.Stderr, "mlpartd: stream smoke ok: %d jobs, %d events on %s\n", burst, len(frames), ids[0])
	return nil
}

// consumeJobEvents reads the full SSE stream for one job — the
// stream ends when the server closes it after the terminal event —
// and parses it into frames. lastID > 0 resumes via Last-Event-ID.
func consumeJobEvents(base, id string, lastID int64) ([]server.SSEFrame, error) {
	req, err := http.NewRequest(http.MethodGet, base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return nil, err
	}
	if lastID > 0 {
		req.Header.Set("Last-Event-ID", fmt.Sprint(lastID))
	}
	// No client timeout: the stream lives until the job's terminal
	// event, which the per-job deadline already bounds.
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s", req.URL, resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		return nil, fmt.Errorf("%s: Content-Type %q, want text/event-stream", req.URL, ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return server.ParseSSE(raw), nil
}

// checkLifecycle asserts the ordered SSE contract on one job's
// frames: ids gapless from firstID, queued first, started before the
// single terminal event, which comes last. Only queued, started and
// the terminal event may appear; anything else (a retry or a
// heartbeat, say) fails the smoke.
func checkLifecycle(frames []server.SSEFrame, firstID int64) error {
	if len(frames) < 3 {
		return fmt.Errorf("only %d frames, want at least queued/started/terminal", len(frames))
	}
	started := false
	for i, f := range frames {
		if f.ID != firstID+int64(i) {
			return fmt.Errorf("frame %d has id %d, want gapless %d", i, f.ID, firstID+int64(i))
		}
		switch f.Event {
		case "queued":
			if i != 0 {
				return fmt.Errorf("queued at position %d, want 0", i)
			}
		case "started":
			started = true
		case "completed":
			if !started {
				return fmt.Errorf("completed before started")
			}
			if i != len(frames)-1 {
				return fmt.Errorf("terminal event at %d of %d, want last", i, len(frames)-1)
			}
		default:
			return fmt.Errorf("unexpected event %q", f.Event)
		}
	}
	if last := frames[len(frames)-1].Event; last != "completed" {
		return fmt.Errorf("stream ends with %q, want completed", last)
	}
	return nil
}

// getJSON fetches url and decodes the 200 body into v.
func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s: %s", url, resp.Status, data)
	}
	return json.Unmarshal(data, v)
}
