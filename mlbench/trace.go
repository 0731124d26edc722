package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"mlpart"
	"mlpart/internal/journal"
	"mlpart/internal/telemetry"
)

// span is one timed call at a layer boundary. Spans of one op or job
// share Op; Parent indexes the enclosing span (-1 for a root); Level
// is the hierarchy level (-1 outside the level loop) and Cells the
// cell count of the hypergraph the call worked on.
type span struct {
	Op     string `json:"op"`
	Name   string `json:"name"`
	Level  int    `json:"level"`
	Cells  int    `json:"cells"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// tracer keeps spans in memory until the run ends. Service clients
// add spans concurrently, so appends go through mu. A nil tracer
// records nothing.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func (t *tracer) add(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// begin opens a span now and returns its index for end.
func (t *tracer) begin(op, name string, level, cells, parent int) int {
	return t.add(span{Op: op, Name: name, Level: level, Cells: cells, Parent: parent, Start: time.Since(t.t0).Nanoseconds()})
}

func (t *tracer) end(i int) {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].End = now
}

// job records one service job's client-observed phases: admit (POST
// to 202), queue (202 to the started event), run (started to the
// terminal event) and result (the result GET). An admission-time cache
// hit completes without a started event and has no queue or run span.
func (t *tracer) job(i int, jt jobTimes) {
	if t == nil {
		return
	}
	id := fmt.Sprintf("job-%d", i)
	at := func(name string, parent int, from, to time.Time) int {
		return t.add(span{Op: id, Name: name, Level: -1, Parent: parent,
			Start: from.Sub(t.t0).Nanoseconds(), End: to.Sub(t.t0).Nanoseconds()})
	}
	root := at("server.job", -1, jt.post, jt.done)
	at("server.admit", root, jt.post, jt.accepted)
	if !jt.started.IsZero() {
		at("server.queue", root, jt.accepted, jt.started)
		at("server.run", root, jt.started, jt.terminal)
	}
	at("server.result", root, jt.resultStart, jt.done)
}

// smallCells is the level size below which a span also counts toward
// the ".small" variant of its metric.
const smallCells = 1024

// journalProbeAppends is how many records the direct journal probe
// appends.
const journalProbeAppends = 64

// traceWorkload is the traced run (--trace 1). It measures the layers
// from outside. On service-mix, two phases share the configured
// duration:
//
//  1. service: the workload's jobs submitted to an in-process service
//     by the closed-loop clients, each job's phases stamped on the
//     client side, then the parser, the content hash and journal
//     appends called directly on the workload's inputs;
//  2. replay: per op, an untraced entry-point call (wall and CPU time),
//     a call with armed telemetry (the core.entry span and the
//     pass, move and level counts), and a replay of the same seed's
//     pipeline through the layers' public functions with one span per
//     layer call, whose partition must equal the entry point's.
//
// A library workload runs no service, so it spends the whole duration
// on the replay and reports its service layers as 0: they did no work.
func traceWorkload(w workload, cfg config, rep *report) error {
	circs, err := w.genCircuits(cfg.seed)
	if err != nil {
		return err
	}
	tr := &tracer{t0: time.Now()}
	d := cfg.duration()

	var svc *serviceTrace
	if w.service {
		if svc, err = traceService(w, circs, cfg, d*2/5, rep, tr); err != nil {
			return err
		}
		d = d * 3 / 5
	}
	lib := replayOps(w, circs, cfg.seed, d, rep, tr)
	addLibraryLayers(rep, tr.spans, lib)
	addServiceLayers(rep, svc)

	if cfg.spans != "" {
		data, err := json.Marshal(tr.spans)
		if err != nil {
			return err
		}
		if err := os.WriteFile(cfg.spans, data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// replayStats carries what the replay phase measured besides spans.
type replayStats struct {
	ops int
	// untraced and cpu are the wall and process CPU time of the
	// untraced entry-point calls, entryMS each call's wall time.
	untraced, cpu time.Duration
	entryMS       []float64
	reports       []*mlpart.Report
	// fineCells and coarseCells sum the input and output cell counts of
	// every coarsening level.
	fineCells, coarseCells int
}

// replayOps runs the replay phase over the workload's distinct ops
// until d has passed and at least ops 0 and 1 (on the service, one of
// each k) have been tried.
func replayOps(w workload, circs []circuit, seed int64, d time.Duration, rep *report, tr *tracer) replayStats {
	var st replayStats
	deadline := time.Now().Add(d)
	for i := 0; i < 2 || time.Now().Before(deadline); i++ {
		o := w.op(seed, i)
		if o.repeatOf >= 0 {
			continue
		}
		h := circs[o.circuit].h
		id := fmt.Sprintf("op-%d", i)

		cpu0 := cpuTime()
		t0 := time.Now()
		ref, info, err := runOp(h, o, nil)
		wall := time.Since(t0)
		cpu := cpuTime() - cpu0
		if _, err := checkOp(h, o, ref, info, err); err != nil {
			rep.op(err)
			continue
		}

		tel := mlpart.NewTelemetry()
		s := tr.begin(id, "core.entry", -1, h.NumCells(), -1)
		armed, _, armedErr := runOp(h, o, tel)
		tr.end(s)
		s = tr.begin(id, "replay", -1, h.NumCells(), -1)
		replayed, replayErr := replay(tr, id, s, h, o)
		tr.end(s)
		err = errors.Join(armedErr, replayErr, samePartition("telemetry-armed call", ref, armed), samePartition("replay", ref, replayed))
		if err != nil {
			rep.op(fmt.Errorf("op %d (circuit %d, k=%d, seed %d): %w", i, o.circuit, o.k, o.opt.Seed, err))
			continue
		}
		rep.op(nil)
		st.ops++
		st.untraced += wall
		st.entryMS = append(st.entryMS, ms(wall))
		st.cpu += cpu
		r := tel.Report()
		st.reports = append(st.reports, r)
		fine := h.NumCells()
		for _, ps := range r.PerStart {
			for _, l := range ps.Coarsening {
				st.fineCells += fine
				st.coarseCells += l.Cells
				fine = l.Cells
			}
		}
	}
	return st
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// ratio is a/b, or 0 when b is 0 (the layer did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// replayLayers are the layer spans a replay records; their sum is what
// core.self_ms subtracts from the entry-point span.
var replayLayers = []string{"coarsen.match", "hypergraph.induce", "refine.coarsest", "hypergraph.project", "hypergraph.balance", "refine.level"}

// addLibraryLayers reports the replay phase: layer times per op from
// the spans (".small": levels under smallCells cells), counts per op
// from the telemetry reports.
func addLibraryLayers(rep *report, spans []span, st replayStats) {
	total := map[string]float64{}
	small := map[string]float64{}
	for _, s := range spans {
		if !strings.HasPrefix(s.Op, "op-") {
			continue
		}
		total[s.Name] += s.ms()
		if s.Level >= 0 && s.Cells < smallCells {
			small[s.Name] += s.ms()
		}
	}
	layers := 0.0
	for _, name := range replayLayers {
		layers += total[name]
	}
	n := float64(st.ops)
	var fmPasses, fmTried, fmKept, kwPasses, kwTried, kwKept, moved, levels, regions float64
	for _, r := range st.reports {
		levels += float64(r.Levels)
		for _, ps := range r.PerStart {
			moved += float64(ps.RebalanceMoved)
			regions += float64(ps.Timings.CoarsenParRegions + ps.Timings.RefineParRegions)
			for _, p := range ps.Passes {
				if strings.HasPrefix(p.Engine, "kway-") {
					kwPasses, kwTried, kwKept = kwPasses+1, kwTried+float64(p.MovesTried), kwKept+float64(p.MovesKept)
				} else {
					fmPasses, fmTried, fmKept = fmPasses+1, fmTried+float64(p.MovesTried), fmKept+float64(p.MovesKept)
				}
			}
		}
	}
	rep.add("coarsen.match_ms", total["coarsen.match"]/n, "ms", 0)
	rep.add("coarsen.match_ms.small", small["coarsen.match"]/n, "ms", 0)
	rep.add("hypergraph.induce_ms", total["hypergraph.induce"]/n, "ms", 0)
	rep.add("hypergraph.induce_ms.small", small["hypergraph.induce"]/n, "ms", 0)
	rep.add("coarsen.shrink_ratio", ratio(float64(st.coarseCells), float64(st.fineCells)), "ratio", 0)
	rep.add("refine.coarsest_ms", total["refine.coarsest"]/n, "ms", 0)
	rep.add("refine.level_ms", total["refine.level"]/n, "ms", 0)
	rep.add("refine.level_ms.small", small["refine.level"]/n, "ms", 0)
	rep.add("fm.passes", fmPasses/n, "count", 0)
	rep.add("fm.moves_tried", fmTried/n, "count", 0)
	rep.add("fm.kept_ratio", ratio(fmKept, fmTried), "ratio", 0)
	rep.add("kway.passes", kwPasses/n, "count", 0)
	rep.add("kway.moves_tried", kwTried/n, "count", 0)
	rep.add("kway.kept_ratio", ratio(kwKept, kwTried), "ratio", 0)
	rep.add("hypergraph.project_ms", total["hypergraph.project"]/n, "ms", 0)
	rep.add("hypergraph.balance_ms", total["hypergraph.balance"]/n, "ms", 0)
	rep.add("hypergraph.rebalance_moved", moved/n, "cells", 0)
	rep.add("core.entry_ms_p50", median(st.entryMS), "ms", len(st.entryMS))
	rep.add("core.entry_ms_p90", percentile(st.entryMS, 0.9), "ms", len(st.entryMS))
	rep.add("core.self_ms", (total["core.entry"]-layers)/n, "ms", 0)
	rep.add("core.levels", levels/n, "count", 0)
	rep.add("intrapar.regions", regions/n, "count", 0)
	rep.add("intrapar.cores_used", ratio(st.cpu.Seconds(), st.untraced.Seconds()), "cores", 0)
	rep.add("trace.overhead_ratio", ratio(total["replay"], ms(st.untraced)), "ratio", 0)
}

// serviceTrace is what the traced service phase measured.
type serviceTrace struct {
	// phase holds each client-observed job phase's durations in ms.
	phase         map[string][]float64
	before, after telemetry.ServiceReport
	// appends counts journal appends during the load, jobs the jobs the
	// service accepted; wall is the load's duration.
	appends int64
	jobs    int
	wall    time.Duration
	direct  directStats
}

// traceService runs the workload's jobs on an in-process service for d,
// recording one span tree per job, then the direct probes.
func traceService(w workload, circs []circuit, cfg config, d time.Duration, rep *report, tr *tracer) (*serviceTrace, error) {
	svc, err := startService(cfg.workdir)
	if err != nil {
		return nil, err
	}
	if err := svc.warmUp(w); err != nil {
		return nil, errors.Join(err, svc.close())
	}
	st := &serviceTrace{phase: map[string][]float64{}}
	if st.before, err = svc.ledger(); err != nil {
		return nil, errors.Join(err, svc.close())
	}
	appends := svc.appends.Load()
	ls := svc.load(w, circs, cfg.seed, w.cycle, d, rep, tr)
	st.appends, st.jobs, st.wall = svc.appends.Load()-appends, ls.submitted, ls.wall
	st.after, err = svc.ledger()
	if err == nil {
		err = checkLedger(st.before, st.after, ls.submitted)
	}
	rep.check(err)
	rep.check(svc.close())
	for _, s := range tr.spans {
		if strings.HasPrefix(s.Op, "job-") {
			st.phase[s.Name] = append(st.phase[s.Name], s.ms())
		}
	}
	st.direct, err = probeDirect(w, circs, cfg)
	return st, err
}

// addServiceLayers reports the service phase: client-observed phase
// percentiles, ratios from the ledger delta and the journal append
// count, and the direct probes. A nil st (no service ran) reports every
// service layer as 0.
func addServiceLayers(rep *report, st *serviceTrace) {
	idle := st == nil
	if idle {
		st = &serviceTrace{}
	}
	pct := func(name string, xs []float64, q float64, unit string) {
		v := 0.0
		if !idle {
			v = percentile(xs, q)
		}
		rep.add(name, v, unit, len(xs))
	}
	for _, p := range []struct {
		name string
		q    float64
	}{
		{"server.job", 0.5}, {"server.job", 0.9},
		{"server.admit", 0.5}, {"server.admit", 0.99},
		{"server.queue", 0.5}, {"server.queue", 0.99},
		{"server.run", 0.5}, {"server.run", 0.99},
		{"server.result", 0.5},
	} {
		pct(fmt.Sprintf("%s_ms_p%02.0f", p.name, p.q*100), st.phase[p.name], p.q, "ms")
	}
	rep.add("server.jobs_per_s", ratio(float64(len(st.phase["server.job"])), st.wall.Seconds()), "1/s", 0)
	hits := float64(st.after.CacheHits - st.before.CacheHits)
	misses := float64(st.after.CacheMisses - st.before.CacheMisses)
	accepted := float64(st.after.Accepted - st.before.Accepted)
	batched := float64(st.after.Batched - st.before.Batched)
	rep.add("server.cache_hit_ratio", ratio(hits, hits+misses), "ratio", 0)
	rep.add("batcher.batched_ratio", ratio(batched, accepted), "ratio", 0)
	rep.add("batcher.jobs_per_flush", ratio(batched, float64(st.after.BatchFlushes-st.before.BatchFlushes)), "count", 0)
	rep.add("journal.appends_per_job", ratio(float64(st.appends), float64(st.jobs)), "count", 0)
	pct("journal.append_us_p50", st.direct.appendUS, 0.5, "us")
	pct("journal.append_us_p99", st.direct.appendUS, 0.99, "us")
	pct("hypergraph.parse_ms", st.direct.parseMS, 0.5, "ms")
	pct("hypergraph.hash_ms", st.direct.hashMS, 0.5, "ms")
}

// directStats are the direct probes' samples.
type directStats struct {
	parseMS, hashMS, appendUS []float64
}

// probeDirect times ReadHGR and ContentHash on every circuit text (three
// rounds) and journalProbeAppends fsynced appends of accepted records
// the size of the workload's first job request, in a scratch journal.
func probeDirect(w workload, circs []circuit, cfg config) (directStats, error) {
	var st directStats
	var hash string
	for round := 0; round < 3; round++ {
		for _, c := range circs {
			t0 := time.Now()
			h, err := mlpart.ReadHGR(strings.NewReader(c.hgr))
			st.parseMS = append(st.parseMS, ms(time.Since(t0)))
			if err != nil {
				return st, fmt.Errorf("parse probe: %w", err)
			}
			t0 = time.Now()
			hash = h.ContentHash()
			st.hashMS = append(st.hashMS, ms(time.Since(t0)))
		}
	}
	o := w.op(cfg.seed, 0)
	body, err := requestBody(circs[o.circuit], o)
	if err != nil {
		return st, err
	}
	fp, err := o.opt.Fingerprint()
	if err != nil {
		return st, err
	}
	dir, err := os.MkdirTemp(cfg.workdir, "journal-")
	if err != nil {
		return st, err
	}
	jw, err := journal.OpenAppend(filepath.Join(dir, "journal"), journal.Options{})
	if err != nil {
		return st, errors.Join(err, os.RemoveAll(dir))
	}
	for i := 0; i < journalProbeAppends && err == nil; i++ {
		t0 := time.Now()
		err = jw.Append(journal.Record{Type: journal.TypeAccepted, ID: fmt.Sprintf("j-%06d", i), Seq: i,
			ContentHash: hash, Fingerprint: fp, K: o.k, Request: body})
		st.appendUS = append(st.appendUS, float64(time.Since(t0))/float64(time.Microsecond))
	}
	return st, errors.Join(err, jw.Close(), os.RemoveAll(dir))
}
