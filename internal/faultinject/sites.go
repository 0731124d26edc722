package faultinject

// The site registry. Every instrumented location in the pipeline is
// named here, exactly once, in this single const block, and listed in
// AllSites; cmd/mllint's faultsite check enforces all three
// properties (and that the names are referenced only from internal/
// packages), keeping the registry the one auditable source of truth
// for what the chaos suite must cover.
const (
	// SiteCoarsenMatch fires at the head of every coarsen.Match call
	// (one serial sweep; IntraParallelism is ignored). Cancel stops
	// matching immediately (all-singleton clustering); corrupt swaps
	// two cells between clusters (well-formed, worse).
	SiteCoarsenMatch Site = "coarsen.match"
	// SiteFMPass fires at every FM/PROP pass boundary. Cancel aborts
	// refinement as a Stop hook would; corrupt flips one cell without
	// updating the incremental cut, which the audit layer must catch.
	SiteFMPass Site = "fm.pass"
	// SiteKwayRefine fires at every multi-way pass boundary, with the
	// same cancel/corrupt semantics as SiteFMPass.
	SiteKwayRefine Site = "kway.refine"
	// SiteCoreProject fires before each uncoarsening projection. A
	// panic here is unrecoverable for the attempt (no fine solution
	// exists yet) and exercises the supervisor's retry path.
	SiteCoreProject Site = "core.project"
	// SiteCoreRebalance fires before each per-level rebalance/refine
	// decision. A panic drops the attempt to the degraded
	// project-and-rebalance path; corrupt perturbs the projected
	// solution before the engine sees it.
	SiteCoreRebalance Site = "core.rebalance"
	// SiteServerAdmit fires in mlpartd's admission path, before a job
	// is enqueued. A panic must reject only that submission (the
	// accept loop survives); cancel sheds the job as if the queue
	// were full; delay slows admission. Never reached by the library
	// entry points.
	SiteServerAdmit Site = "server.admit"
	// SiteServerJob fires at the head of each mlpartd job execution
	// attempt. A panic fails the attempt into the job's retry/backoff
	// path; cancel behaves as a client cancellation; delay eats into
	// the job's deadline. Never reached by the library entry points.
	SiteServerJob Site = "server.job"
	// SiteServerEvents fires at the head of each event-stream
	// subscription (GET /v1/jobs/{id}/events and /v1/events). A panic
	// fails only that subscription with a 500 — the job and the other
	// subscribers are unaffected; cancel drops the subscriber
	// immediately after the replay, the way an overflowing slow
	// consumer would be dropped; delay stalls the subscription
	// handshake, never the job. Never reached by the library entry
	// points.
	SiteServerEvents Site = "server.events"
	// SiteJournalAppend fires inside every write-ahead journal append,
	// before the frame reaches the file. A panic unwinds into the
	// caller's recover barrier (an admission append panic rejects only
	// that submission); cancel fails the append transiently (the
	// record is not durable, the writer stays usable); corrupt models
	// a torn write — half a frame is written and the writer goes
	// read-only, the way a dying disk or a crash mid-write would leave
	// it; delay models a slow fsync. Never reached by the library
	// entry points.
	SiteJournalAppend Site = "journal.append"
	// SiteJournalReplay fires once per frame while replaying a journal
	// at startup. A panic must be contained by the server's replay
	// barrier (startup fails cleanly, the process does not crash);
	// cancel and corrupt both truncate the replay at the current frame
	// — the torn-tail model applied mid-file; delay slows recovery.
	// Never reached by the library entry points.
	SiteJournalReplay Site = "journal.replay"
)

// AllSites is the registry: every instrumented site, exactly once.
// The chaos suite sweeps this list; Plan.Validate checks against it.
var AllSites = []Site{
	SiteCoarsenMatch,
	SiteFMPass,
	SiteKwayRefine,
	SiteCoreProject,
	SiteCoreRebalance,
	SiteServerAdmit,
	SiteServerJob,
	SiteServerEvents,
	SiteJournalAppend,
	SiteJournalReplay,
}

// ValidSite reports whether s is a registered site.
func ValidSite(s Site) bool {
	for _, r := range AllSites {
		if r == s {
			return true
		}
	}
	return false
}
