# Developer entry points. The repo is stdlib-only Go; everything here
# is plain toolchain invocations.

GO ?= go

.PHONY: all build vet test race lint chaos crash-smoke fuzz-smoke stats-smoke serve-smoke bench-smoke bench-test oracle check

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The refiners' Stop hooks and the cancellation plumbing are shared
# mutable state; the race detector must stay clean.
race:
	$(GO) test -race ./...

# Project-specific determinism & safety linter (cmd/mllint): global
# math/rand, map-order leaks, float equality, unchecked int32
# narrowing, context threading. See the "Static analysis" section of
# the README for the check list and the suppression syntax.
lint:
	$(GO) run ./cmd/mllint ./...

# Chaos suite: the deterministic fault-injection sweep (every site ×
# every fault kind × both entry points) plus the parallel multi-start
# supervisor tests (each start runs once, under the caller's context;
# a failed start stays failed while the others run) and the Starts
# bound (a request above mlpart.MaxStarts is refused by Validate and
# by mlpartd's admission and recovery), and the mlpartd server chaos
# sweep (faults at
# server.admit / server.job / server.events under a concurrent burst:
# every accepted job must reach exactly one terminal status, a job
# after a panicked one on the same worker completes normally, and a
# panicked job runs once and streams queued, started, failed, every
# lifecycle path streams its exact events with resume from each id, an
# unread stream never holds its job up, a server.events cancel cuts a
# live stream, a cancel or drain racing a worker's start leaves no
# finished job holding its netlist, and a cancel of a running
# MaxStarts job, whose remaining starts the supervisor's dispatcher
# records as skipped while its pool workers drain, ends the job
# cancelled), plus the refiners' pass-site
# faults (a cancel at fm.pass or kway.refine, like a Stop hook or
# MaxPasses, ends every engine's run at the same pass boundary), under
# the race detector —
# the recovery paths must be both correct and race-free.
chaos:
	$(GO) test -race -run 'TestChaos|TestParallelMultiStart|TestRecoveredStart|TestOuterCancel|TestRunStarts|TestValidateBoundsStarts' . ./internal/core
	$(GO) test -race ./internal/faultinject ./internal/journal
	$(GO) test -race -run 'TestChaosSweepServer|TestChaosSweepJournal|TestDrainMidBurst|TestQueueFullSheds|TestAdmitPanic|TestWorkerSession|TestSSE|TestCancelRacesWorkerStart|TestStartsAboveBoundRejected|TestRecoveryClosesUnrunnableJob|TestCancelInterruptsRunningJob' ./internal/server
	$(GO) test -race -run TestPassContract ./internal/fm ./internal/kway

# Crash durability harness: launch cmd/mlpartd as a real subprocess
# with a write-ahead job journal, SIGKILL it at a deterministic
# journal position mid-burst (and once more under an injected torn
# write), restart it on the same journal, and audit that no
# acknowledged job was lost or double-completed. statscheck -journal
# validates the journal's lifecycle invariants offline at each step.
crash-smoke:
	$(GO) test -v -count=1 -run 'TestCmdMlpartdCrash|TestCmdStatscheckJournal' .

# Short fuzz runs: the parser hardening (resource limits, overflow
# checks) for .hgr and .netD, the byte-level .hgr reader against its
# frozen string-based reference (same error text or an identical
# hypergraph), the pipeline target (the coarsening hierarchy must be a
# pure function of the seed, and partitions must agree with the
# oracle), and
# the canonical options JSON round trip, mlpartd's POST /v1/jobs
# decoder (malformed requests get a 4xx, never a 5xx or a panic, and
# the job ledger stays balanced; and the decoder agrees with its frozen
# json.Decoder reference on every body), and journal replay (a torn or
# corrupt journal truncates to a consistent prefix that re-encodes
# intact). The checked-in corpora under
# internal/hypergraph/testdata/fuzz and testdata/fuzz seed them and run
# in plain `make test` as well.
fuzz-smoke:
	$(GO) test -fuzz='^FuzzReadHGR$$' -fuzztime=10s ./internal/hypergraph
	$(GO) test -run '^$$' -fuzz='^FuzzReadHGRMatchesReference$$' -fuzztime=10s ./internal/hypergraph
	$(GO) test -run '^$$' -fuzz='^FuzzReadNetD$$' -fuzztime=5s ./internal/hypergraph
	$(GO) test -run '^$$' -fuzz='^FuzzPipeline$$' -fuzztime=10s .
	$(GO) test -run '^$$' -fuzz='^FuzzOptionsJSON$$' -fuzztime=5s .
	$(GO) test -run '^$$' -fuzz='^FuzzJobRequest$$' -fuzztime=5s ./internal/server
	$(GO) test -run '^$$' -fuzz='^FuzzJobRequestDecoder$$' -fuzztime=5s ./internal/server
	$(GO) test -run '^$$' -fuzz='^FuzzJournalReplay$$' -fuzztime=5s ./internal/journal

# Telemetry smoke: run the CLI with -stats-json on the checked-in
# mesh netlist at two parallelism levels, for k = 2 and for k = 4,
# validate every report with cmd/statscheck, and require each pair's
# partition files and timing-stripped reports to be byte-identical
# (the determinism contract of the starts axis and of the stats
# schema). The 64-cell netlist is below the k = 4 default T = 100, so
# that pair sets T = 16 to coarsen at all; T = 0 is the k = 2 default.
stats-smoke:
	for kt in 2:0 4:16; do \
		k=$${kt%:*}; t=$${kt#*:}; \
		for par in 1 4; do \
			$(GO) run ./cmd/mlpart -in cmd/mlpart/testdata/smoke.hgr -k $$k -threshold $$t \
				-starts 3 -parallel $$par -out /tmp/mlpart-stats-k$$k-p$$par.part \
				-stats-json /tmp/mlpart-stats-k$$k-p$$par.json || exit 1; \
			$(GO) run ./cmd/statscheck -in /tmp/mlpart-stats-k$$k-p$$par.json -strip \
				> /tmp/mlpart-stats-k$$k-p$$par.stripped.json || exit 1; \
		done; \
		cmp /tmp/mlpart-stats-k$$k-p1.part /tmp/mlpart-stats-k$$k-p4.part || exit 1; \
		cmp /tmp/mlpart-stats-k$$k-p1.stripped.json /tmp/mlpart-stats-k$$k-p4.stripped.json || exit 1; \
	done

# Service smoke: mlpartd's loopback self-test drives the daemon over
# real HTTP (submit / wait / result and a byte-identical cache hit; then
# a burst of distinct-seed jobs while one SSE consumer checks the
# queued → started → completed event order and Last-Event-ID resume,
# and /statsz answers in both the mlpartd-stats/1 and mlpart-bench/1
# schemas),
# then a self-delivered SIGTERM takes the production drain path. The
# final service stats go to a file (so a failing self-test fails the
# target) that cmd/statscheck validates against the mlpartd-stats/1
# accounting ledger.
serve-smoke:
	$(GO) build -o /tmp/mlpartd-smoke ./cmd/mlpartd
	/tmp/mlpartd-smoke -smoke -in cmd/mlpart/testdata/smoke.hgr > /tmp/mlpartd-smoke-stats.json
	$(GO) run ./cmd/statscheck -in /tmp/mlpartd-smoke-stats.json

# Benchmark regression gate: cmd/benchrun sweeps the pinned netgen
# instances, writes BENCH_<date>.json, and gates cuts (exact), allocs/op
# and bytes/op (tolerance) against the checked-in bench_baseline.json.
# Timings are recorded but never gated. Two measured iterations keep
# the smoke fast; regenerate the baseline deliberately with
# `go run ./cmd/benchrun -update`.
bench-smoke:
	$(GO) run ./cmd/benchrun -iters 2 -out /tmp/mlpart-bench-smoke.json

# The benchmark module's own tests (mlbench is a separate module, so
# `go test ./...` at the root skips it): they pin the traced layer
# replay of fm/kway Partition and Refine byte-identical to the library
# entry points for k=2 and k=4.
bench-test:
	$(GO) -C mlbench test ./...

# Differential oracle suite: the optimized pipeline against the slow
# from-scratch reference (internal/oracle), the refiners' move
# selection against the full bucket scan, the FM/CLIP refiner in
# lockstep with a frozen copy of the engine before its packed net
# record, the k-way refiner in lockstep with a frozen copy from before
# its closed-form gain updates, and the gain buckets against a naive
# reference, twice to catch state leaking between runs, under the race
# detector.
oracle:
	$(GO) test -race -run Oracle -count=2 . ./internal/fm ./internal/kway ./internal/oracle
	$(GO) test -race -run 'Oracle|Differential' -count=2 ./internal/gainbucket

check: build vet test race lint chaos crash-smoke fuzz-smoke stats-smoke serve-smoke oracle bench-smoke bench-test
