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
// Two flags exist purely for the subprocess test harness
// (`make crash-smoke`, `make serve-smoke`): -addr-file writes the
// bound listen address to a file so the harness can find a :0
// listener, and
// -crash-after-appends n SIGKILLs the process the moment the n-th
// journal record becomes durable — a deterministic stand-in for
// pulling the plug mid-burst.
package main

import (
	"context"
	"flag"
	"fmt"
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
		addrFile     = flag.String("addr-file", "", "write the bound listen address to this file (test-harness port discovery)")
		crashAfter   = flag.Int("crash-after-appends", 0, "SIGKILL self after the n-th durable journal append (crash harness only)")
		chaosSeed    = flag.Int64("chaos-seed", 1, "seed for probabilistic -chaos triggers")
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

	ln, err := net.Listen("tcp", *addr)
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

	select {
	case got := <-sig:
		fmt.Fprintf(os.Stderr, "mlpartd: %v: draining\n", got)
	case err := <-serveErr:
		return fmt.Errorf("serve: %w", err)
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

	// The final stats snapshot is the drain's flight recorder; pipe it
	// into statscheck.
	rep := srv.Stats()
	return rep.WriteJSON(os.Stdout)
}
