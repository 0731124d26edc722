// Command statscheck validates a statistics report: either a
// -stats-json run report written by cmd/mlpart (schema
// mlpart-stats/1: header consistency, per-start completeness and
// coarsening stop reasons, internal counter invariants, non-zero
// wall-clock totals for every start that ran — a start skipped after
// a cancel reads all-zero timings and carries nothing else) or a
// /statsz service snapshot from mlpartd
// (schema mlpartd-stats/1: accounting invariants — accepted =
// terminals + queued + running, including the crash-recovery
// counters). The schema is detected from the document. It is the
// validation half of `make stats-smoke`, `make serve-smoke`, and
// `make crash-smoke`.
//
// mlpartd-stats/1 no longer has the retried key: mlpartd runs each job
// once, so the count of extra job attempts is gone. Snapshots written
// before that still validate; the key is ignored. Likewise each start
// of a run runs once, so mlpart-stats/1 no longer has a per-start
// attempts key; older reports still decode, with the key ignored.
// Their retried and timed-out outcomes are gone too, and no longer
// validate.
//
// Usage:
//
//	statscheck -in stats.json [-min-levels 1] [-min-passes 1] [-strip]
//	mlpartd ... | statscheck
//	statscheck -journal jobs.wal
//
// With -in empty or "-", the report is read from stdin — that is how
// mlpartd's final stats output is piped straight into validation.
//
// -strip additionally prints a run report to stdout with every *_ns
// timing field zeroed, in the canonical indented encoding — piping two
// stripped reports through cmp/diff is the cross-parallelism
// determinism check. (Service snapshots are inherently stateful, so
// -strip applies only to run reports.)
//
// -journal switches to offline journal inspection: the write-ahead
// job journal at the given path is replayed read-only, its lifecycle
// invariants checked (one accepted and at most one terminal record
// per job, accepted always first, known terminal statuses; the started
// records of journals written before mlpartd stopped appending them
// are counted and must follow their accepted record), and a
// mlpartd-journal/1 dump printed to stdout — per-job state plus
// torn-tail accounting. The crash harness diffs these dumps across a
// kill/restart cycle.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"

	"mlpart"
	"mlpart/internal/journal"
	"mlpart/internal/server"
	"mlpart/internal/telemetry"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "statscheck:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		in        = flag.String("in", "", "stats JSON file (empty or \"-\" reads stdin)")
		minLevels = flag.Int("min-levels", 1, "minimum coarsening levels required of the best start (run reports)")
		minPasses = flag.Int("min-passes", 1, "minimum refinement passes required of the best start (run reports)")
		strip     = flag.Bool("strip", false, "print a run report with timings zeroed to stdout")
		jpath     = flag.String("journal", "", "inspect the write-ahead job journal at this path instead of a stats report")
	)
	flag.Parse()

	if *jpath != "" {
		return dumpJournal(*jpath)
	}

	name := *in
	var data []byte
	var err error
	if name == "" || name == "-" {
		name = "stdin"
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(name)
	}
	if err != nil {
		return err
	}

	// Detect the document kind from its schema field before
	// committing to a full decode.
	var head struct {
		Schema string `json:"schema"`
	}
	if err := json.Unmarshal(data, &head); err != nil {
		return fmt.Errorf("%s: %v", name, err)
	}
	switch head.Schema {
	case telemetry.ServiceSchemaVersion: // mlpartd-stats/1
		var r telemetry.ServiceReport
		if err := json.Unmarshal(data, &r); err != nil {
			return fmt.Errorf("%s: %v", name, err)
		}
		if err := validateService(&r); err != nil {
			return fmt.Errorf("%s: %v", name, err)
		}
		if *strip {
			return fmt.Errorf("%s: -strip applies only to %s run reports", name, "mlpart-stats/1")
		}
		fmt.Fprintf(os.Stderr, "statscheck: %s ok (service: %d accepted, %d completed, %d rejected, cache %d/%d)\n",
			name, r.Accepted, r.Completed, r.RejectedQueueFull+r.RejectedDraining,
			r.CacheHits, r.CacheHits+r.CacheMisses)
		return nil
	default:
		var r mlpart.Report
		if err := json.Unmarshal(data, &r); err != nil {
			return fmt.Errorf("%s: %v", name, err)
		}
		if err := validate(&r, *minLevels, *minPasses); err != nil {
			return fmt.Errorf("%s: %v", name, err)
		}
		if *strip {
			r.StripTimings()
			if err := r.WriteJSON(os.Stdout); err != nil {
				return err
			}
		}
		fmt.Fprintf(os.Stderr, "statscheck: %s ok (%d starts, best %d, cut %d, %d levels)\n",
			name, r.Starts, r.BestStart, r.Cut, r.Levels)
		return nil
	}
}

// validateService checks the mlpartd-stats/1 accounting invariants.
func validateService(r *telemetry.ServiceReport) error {
	for _, c := range []struct {
		name string
		v    int64
	}{
		{"accepted", r.Accepted},
		{"rejected_queue_full", r.RejectedQueueFull},
		{"rejected_draining", r.RejectedDraining},
		{"invalid", r.Invalid},
		{"completed", r.Completed},
		{"failed", r.Failed},
		{"cancelled", r.Cancelled},
		{"deadline_exceeded", r.DeadlineExceeded},
		{"drained", r.Drained},
		{"recovered", r.Recovered},
		{"replayed_terminal", r.ReplayedTerminal},
		{"torn_tail_truncated", r.TornTailTruncated},
		{"journal_append_errors", r.JournalAppendErrors},
		{"idempotent_replays", r.IdempotentReplays},
		{"cache_hits", r.CacheHits},
		{"cache_misses", r.CacheMisses},
		{"events_dropped", r.EventsDropped},
		{"queued", r.Queued},
		{"running", r.Running},
	} {
		if c.v < 0 {
			return fmt.Errorf("%s = %d < 0", c.name, c.v)
		}
	}
	if r.QueueCap < 1 {
		return fmt.Errorf("queue_cap = %d < 1", r.QueueCap)
	}
	// The no-lost-jobs ledger: everything admitted is terminal or
	// still in flight.
	terminals := r.Completed + r.Failed + r.Cancelled + r.DeadlineExceeded + r.Drained
	if r.Accepted != terminals+r.Queued+r.Running {
		return fmt.Errorf("accounting violated: accepted %d != terminals %d + queued %d + running %d",
			r.Accepted, terminals, r.Queued, r.Running)
	}
	// Cache lookups happen once per accepted job.
	if r.CacheHits+r.CacheMisses > r.Accepted {
		return fmt.Errorf("cache lookups %d exceed accepted %d", r.CacheHits+r.CacheMisses, r.Accepted)
	}
	// Recovered jobs are a subset of accepted jobs (each one is
	// re-counted in accepted at replay, which is what keeps the ledger
	// balanced across restarts).
	if r.Recovered > r.Accepted {
		return fmt.Errorf("recovered %d exceeds accepted %d", r.Recovered, r.Accepted)
	}
	if r.UptimeNS <= 0 {
		return fmt.Errorf("uptime_ns = %d, want > 0", r.UptimeNS)
	}
	return nil
}

// startOutcomes are the per-start outcomes of mlpart-stats/1; only
// "ok" is clean.
var startOutcomes = []string{"ok", "recovered", "cancelled", "failed"}

func validate(r *mlpart.Report, minLevels, minPasses int) error {
	if r.Schema != "mlpart-stats/1" {
		return fmt.Errorf("schema %q, want mlpart-stats/1", r.Schema)
	}
	if r.K != 2 && r.K != 4 {
		return fmt.Errorf("k = %d, want 2 or 4", r.K)
	}
	if r.Starts < 1 {
		return fmt.Errorf("starts = %d < 1", r.Starts)
	}
	if len(r.PerStart) != r.Starts {
		return fmt.Errorf("per_start has %d entries, header says %d starts", len(r.PerStart), r.Starts)
	}
	if r.BestStart < 0 || r.BestStart >= r.Starts {
		return fmt.Errorf("best_start %d outside [0,%d) — run produced no solution?", r.BestStart, r.Starts)
	}
	if r.Cut < 0 || r.SumDegrees < r.Cut {
		return fmt.Errorf("objective header inconsistent: cut %d, sum_degrees %d", r.Cut, r.SumDegrees)
	}
	for i, s := range r.PerStart {
		if s.Start != i {
			return fmt.Errorf("per_start[%d].start = %d: merge out of start order", i, s.Start)
		}
		if !slices.Contains(startOutcomes, s.Outcome) {
			return fmt.Errorf("start %d: outcome %q, want one of %v", i, s.Outcome, startOutcomes)
		}
		// A start with a clean outcome finished coarsening and says why
		// it stopped; a recovered, cancelled or failed one may not have.
		if (s.Outcome == "ok" || s.CoarsenStop != "") && !slices.Contains(telemetry.CoarsenStops, s.CoarsenStop) {
			return fmt.Errorf("start %d (%s): coarsen_stop %q, want one of %v", i, s.Outcome, s.CoarsenStop, telemetry.CoarsenStops)
		}
		for j, l := range s.Coarsening {
			if l.Cells <= 0 || l.Nets < 0 || l.Pins < 0 {
				return fmt.Errorf("start %d coarsening[%d]: bad shape %+v", i, j, l)
			}
			// Each matched pair and each singleton becomes one coarse
			// cell, so the counts must tile the level exactly.
			if l.MatchedPairs < 0 || l.Singletons < 0 || l.MatchedPairs+l.Singletons != l.Cells {
				return fmt.Errorf("start %d coarsening[%d]: pairing counts %+v do not tile the level", i, j, l)
			}
		}
		for j, p := range s.Passes {
			if p.Engine == "" {
				return fmt.Errorf("start %d passes[%d]: empty engine", i, j)
			}
			if p.MovesKept > p.MovesTried || p.RolledBack != p.MovesTried-p.MovesKept {
				return fmt.Errorf("start %d passes[%d]: move counts inconsistent %+v", i, j, p)
			}
		}
		if s.Rebalances < 0 || s.RebalanceMoved < 0 {
			return fmt.Errorf("start %d: negative rebalance counters", i)
		}
		// A start that ran took time. One skipped after a cancel never
		// ran: its timings are all zero and it carries nothing else.
		if s.Outcome == "cancelled" && s.Timings == (telemetry.StageTimings{}) {
			if s.Cost != -1 || s.CoarsenStop != "" || len(s.Coarsening) > 0 || len(s.Passes) > 0 || s.Rebalances > 0 {
				return fmt.Errorf("start %d: skipped (total_ns 0) but carries statistics", i)
			}
		} else if s.Timings.TotalNS <= 0 {
			return fmt.Errorf("start %d: total_ns = %d, want > 0", i, s.Timings.TotalNS)
		}
	}
	best := r.PerStart[r.BestStart]
	if len(best.Coarsening) != r.Levels {
		return fmt.Errorf("best start has %d coarsening levels, header says %d", len(best.Coarsening), r.Levels)
	}
	if len(best.Coarsening) < minLevels {
		return fmt.Errorf("best start has %d coarsening levels, want >= %d", len(best.Coarsening), minLevels)
	}
	if len(best.Passes) < minPasses {
		return fmt.Errorf("best start has %d refinement passes, want >= %d", len(best.Passes), minPasses)
	}
	return nil
}

// journalDump is the mlpartd-journal/1 offline-inspection document:
// per-job lifecycle state folded from the journal's record stream,
// plus replay accounting. It is deterministic for a given journal
// file, so the crash harness can diff dumps across restarts.
type journalDump struct {
	Schema string `json:"schema"`
	// Replay accounting, straight from the read-only load.
	Frames     int   `json:"frames"`
	ValidBytes int64 `json:"valid_bytes"`
	TornBytes  int64 `json:"torn_bytes"`
	Truncated  bool  `json:"truncated"`
	// Record-type totals. Started is 0 for journals written by a
	// current mlpartd, which journals only accepted and terminal.
	Accepted int `json:"accepted"`
	Started  int `json:"started"`
	Terminal int `json:"terminal"`
	// Open is the crash debt: accepted jobs with no terminal record —
	// what a restart must re-enqueue.
	Open int          `json:"open"`
	Jobs []journalJob `json:"jobs"`
}

// journalJob is one job's folded lifecycle state, in first-appearance
// order.
type journalJob struct {
	ID  string `json:"id"`
	Seq int    `json:"seq"`
	// Status is the journaled terminal status, or "open" while the
	// job still owes one.
	Status      string `json:"status"`
	Started     bool   `json:"started,omitempty"`
	Recovered   bool   `json:"recovered,omitempty"`
	K           int    `json:"k,omitempty"`
	ContentHash string `json:"content_hash,omitempty"`
	Fingerprint string `json:"fingerprint,omitempty"`
	IdemKey     string `json:"idempotency_key,omitempty"`
	// HasRequest reports whether the record still carries the request
	// bytes (compaction strips them from closed jobs).
	HasRequest bool `json:"has_request,omitempty"`
}

// dumpJournal replays the journal read-only, validates the lifecycle
// invariants the server's recovery path relies on, and prints the
// mlpartd-journal/1 dump to stdout.
func dumpJournal(path string) error {
	recs, st, err := journal.Load(path, nil)
	if err != nil {
		return err
	}
	d := journalDump{
		Schema:     "mlpartd-journal/1",
		Frames:     st.Frames,
		ValidBytes: st.ValidBytes,
		TornBytes:  st.TornBytes,
		Truncated:  st.Truncated,
	}
	// byID maps a job id to its index in d.Jobs (indices, not
	// pointers: append reallocates the backing array).
	byID := make(map[string]int)
	for i, r := range recs {
		idx, known := byID[r.ID]
		switch r.Type {
		case journal.TypeAccepted:
			d.Accepted++
			if known {
				return fmt.Errorf("%s: record %d: duplicate accepted record for job %s", path, i, r.ID)
			}
			byID[r.ID] = len(d.Jobs)
			d.Jobs = append(d.Jobs, journalJob{
				ID: r.ID, Seq: r.Seq, Status: "open",
				Recovered: r.Recovered, K: r.K,
				ContentHash: r.ContentHash, Fingerprint: r.Fingerprint,
				IdemKey: r.IdemKey, HasRequest: len(r.Request) > 0,
			})
		case journal.TypeStarted:
			d.Started++
			if !known {
				return fmt.Errorf("%s: record %d: started record for job %s precedes its accepted record", path, i, r.ID)
			}
			d.Jobs[idx].Started = true
		case journal.TypeTerminal:
			d.Terminal++
			if !known {
				return fmt.Errorf("%s: record %d: terminal record for job %s precedes its accepted record", path, i, r.ID)
			}
			if d.Jobs[idx].Status != "open" {
				return fmt.Errorf("%s: record %d: job %s has a second terminal record (%s after %s)", path, i, r.ID, r.Status, d.Jobs[idx].Status)
			}
			if !server.Status(r.Status).Terminal() {
				return fmt.Errorf("%s: record %d: job %s has unknown terminal status %q", path, i, r.ID, r.Status)
			}
			d.Jobs[idx].Status = r.Status
		}
	}
	for i := range d.Jobs {
		if d.Jobs[i].Status == "open" {
			d.Open++
		}
	}
	out, err := json.MarshalIndent(&d, "", "  ")
	if err != nil {
		return err
	}
	if _, err := os.Stdout.Write(append(out, '\n')); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "statscheck: %s ok (journal: %d frames, %d jobs, %d open, %d torn bytes)\n",
		path, d.Frames, len(d.Jobs), d.Open, d.TornBytes)
	return nil
}
