package mlpart

// Chaos suite: sweep every registered fault-injection site crossed
// with every fault kind through both public entry points, with audits
// on, and assert the robustness contract: no crash, a valid balanced
// partition whenever err == nil, and a typed *InternalError or
// *AuditError otherwise. Run under -race by `make chaos`.

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"mlpart/internal/faultinject"
	"mlpart/internal/oracle"
	"mlpart/internal/telemetry"
)

// siteFires reports whether a site can trigger on the given entry
// point (fm.pass is bipartition-only,
// kway.refine quadrisection-only; the server.* sites live in mlpartd's
// admission/job paths and the journal.* sites in its write-ahead log,
// so none of them is ever reached through the library entry points).
func siteFires(site faultinject.Site, k int) bool {
	switch site {
	case faultinject.SiteFMPass:
		return k == 2
	case faultinject.SiteKwayRefine:
		return k == 4
	case faultinject.SiteServerAdmit, faultinject.SiteServerJob, faultinject.SiteServerEvents,
		faultinject.SiteJournalAppend, faultinject.SiteJournalReplay:
		return false
	}
	return true
}

// chaosRun is one chaos-sweep call's outcome.
type chaosRun struct {
	p    *Partition
	info Info
	err  error
}

// digest renders everything a caller can read off a chaos run except
// error texts, which may carry stacks: the partition, the reported
// objectives and each start's report.
func (r chaosRun) digest() string {
	var b strings.Builder
	fmt.Fprintf(&b, "err=%T cut=%d sod=%d levels=%d starts=%d best=%d interrupted=%v\n",
		r.err, r.info.Cut, r.info.SumDegrees, r.info.Levels, r.info.Starts, r.info.BestStart, r.info.Interrupted)
	for _, s := range r.info.StartReports {
		fmt.Fprintf(&b, "start %d %v cost=%d faults=%d interrupted=%v err=%T\n",
			s.Start, s.Outcome, s.Cost, s.Faults, s.Interrupted, s.Err)
	}
	if r.p != nil {
		fmt.Fprintf(&b, "K=%d part=%v", r.p.K, r.p.Part)
	}
	return b.String()
}

// TestChaosSweep arms each site × kind once per entry point. The
// intra0 rows check the robustness contract on the run. The intra2
// rows rerun the same fault plan with IntraParallelism 2, which is
// accepted and ignored, and require the intra0 run's partition,
// objectives and start reports byte for byte.
func TestChaosSweep(t *testing.T) {
	c, err := GenerateCircuit(CircuitSpec{Name: "chaos", Cells: 300, Nets: 340, Pins: 1100, Seed: 51})
	if err != nil {
		t.Fatal(err)
	}
	h := c.H
	run := func(k int, site faultinject.Site, kind faultinject.Kind, intra int) chaosRun {
		opt := Options{
			Seed:             61,
			Starts:           2,
			IntraParallelism: intra,
			Audit:            true,
			Inject: &FaultPlan{
				Seed:    7,
				Entries: []FaultEntry{faultinject.On(site, kind, 1)},
			},
		}
		var r chaosRun
		r.p, r.info, r.err = PartitionCtx(context.Background(), h, k, opt)
		return r
	}
	for _, k := range []int{2, 4} {
		for _, site := range faultinject.AllSites {
			for _, kind := range faultinject.Kinds {
				site, kind, k := site, kind, k
				// The intra0 run, shared by both rows of the combo.
				serial := sync.OnceValue(func() chaosRun { return run(k, site, kind, 0) })
				t.Run(fmt.Sprintf("k%d/intra0/%s/%s", k, site, kind), func(t *testing.T) {
					t.Parallel()
					r := serial()
					checkChaosOutcome(t, h, k, r.p, r.info, r.err)
					if len(r.info.StartReports) != 2 {
						t.Fatalf("got %d start reports, want 2", len(r.info.StartReports))
					}
					if r.info.Interrupted {
						t.Errorf("synthetic fault must not set Info.Interrupted (caller ctx was never done)")
					}
					faults := 0
					for _, s := range r.info.StartReports {
						if s.Start < 0 || s.Start >= 2 {
							t.Errorf("report start index %d out of range", s.Start)
						}
						faults += s.Faults
					}
					if siteFires(site, k) && faults == 0 {
						t.Errorf("site %s armed but no faults fired", site)
					}
					if !siteFires(site, k) && faults != 0 {
						t.Errorf("site %s fired %d times on k=%d, want 0", site, faults, k)
					}
				})
				t.Run(fmt.Sprintf("k%d/intra2/%s/%s", k, site, kind), func(t *testing.T) {
					t.Parallel()
					got, want := run(k, site, kind, 2).digest(), serial().digest()
					if got != want {
						t.Errorf("IntraParallelism 2 changed the outcome:\n%s\nintra0:\n%s", got, want)
					}
				})
			}
		}
	}
}

// checkChaosOutcome asserts the contract shared by every chaos combo.
func checkChaosOutcome(t *testing.T, h *Hypergraph, k int, p *Partition, info Info, err error) {
	t.Helper()
	if err != nil {
		var ierr *InternalError
		var aerr *AuditError
		if !errors.As(err, &ierr) && !errors.As(err, &aerr) {
			t.Fatalf("untyped chaos error: %v", err)
		}
		if p == nil {
			if info.BestStart != -1 {
				t.Fatalf("nil partition but BestStart = %d", info.BestStart)
			}
			return
		}
	}
	if p == nil {
		t.Fatal("nil partition with nil error")
	}
	if info.BestStart < 0 {
		t.Fatalf("non-nil partition but BestStart = %d", info.BestStart)
	}
	if verr := p.Validate(h.NumCells()); verr != nil {
		t.Fatalf("invalid partition: %v", verr)
	}
	if !p.IsBalanced(h, Balance(h, k, 0.1)) {
		t.Fatalf("unbalanced partition (k=%d)", k)
	}
}

// TestChaosProjectPanicFailsEveryStart pins the hard-failure path: a
// panic armed at core.project leaves a start no fine solution to
// degrade to, so every start fails once, and the run must surface a
// typed *InternalError with no partition.
func TestChaosProjectPanicFailsEveryStart(t *testing.T) {
	c, err := GenerateCircuit(CircuitSpec{Name: "chaosfail", Cells: 200, Nets: 230, Pins: 740, Seed: 52})
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{
		Seed:   62,
		Starts: 2,
		Audit:  true,
		Inject: &FaultPlan{
			Entries: []FaultEntry{faultinject.On(faultinject.SiteCoreProject, FaultPanic, 1)},
		},
	}
	p, info, err := Bipartition(c.H, opt)
	if p != nil {
		t.Fatal("want nil partition when every start fails")
	}
	var ierr *InternalError
	if !errors.As(err, &ierr) {
		t.Fatalf("want *InternalError, got %v", err)
	}
	if info.BestStart != -1 {
		t.Fatalf("BestStart = %d, want -1", info.BestStart)
	}
	for _, r := range info.StartReports {
		if r.Outcome != StartFailed {
			t.Errorf("start %d outcome %v, want %v", r.Start, r.Outcome, StartFailed)
		}
		if r.Faults != 1 {
			t.Errorf("start %d fired %d faults, want 1 (one run per start)", r.Start, r.Faults)
		}
		if r.Err == nil {
			t.Errorf("start %d failed without an error", r.Start)
		}
	}
}

// TestChaosCorruptionCaughtByAudit pins that a corrupted solution at
// a refinement pass boundary is detected by the audit layer as a
// typed *AuditError, or absorbed into a still-valid solution — never
// silently returned as a corrupt "success", and never a crash
// (*InternalError) of the refiner reading its own stale state. The
// sweep corrupts the first, second or third pass boundary of 60
// circuits under the default options. Each start runs once, so every
// corruption the audit catches must surface as the run's error; the
// sweep is deterministic, and the count of caught runs is pinned.
func TestChaosCorruptionCaughtByAudit(t *testing.T) {
	audited, absorbed := 0, 0
	for seed := int64(53); seed <= 112; seed++ {
		c, err := GenerateCircuit(CircuitSpec{Name: "chaoscor", Cells: 300, Nets: 340, Pins: 1100, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		h := c.H
		for hit := 1; hit <= 3; hit++ {
			opt := Options{
				Seed:   seed + 10,
				Starts: 1,
				Audit:  true,
				Inject: &FaultPlan{
					Entries: []FaultEntry{faultinject.On(faultinject.SiteFMPass, FaultCorrupt, hit)},
				},
			}
			p, _, err := Bipartition(h, opt)
			if err != nil {
				var aerr *AuditError
				if !errors.As(err, &aerr) {
					t.Fatalf("circuit %d hit %d: corruption surfaced as %T, want *AuditError: %v", seed, hit, err, err)
				}
				audited++
				continue
			}
			// The corruption was absorbed by later passes; the result
			// must be fully valid.
			if p == nil {
				t.Fatalf("circuit %d hit %d: nil partition with nil error", seed, hit)
			}
			if verr := p.Validate(h.NumCells()); verr != nil {
				t.Fatalf("circuit %d hit %d: invalid partition: %v", seed, hit, verr)
			}
			if !p.IsBalanced(h, Balance(h, 2, 0.1)) {
				t.Fatalf("circuit %d hit %d: unbalanced partition", seed, hit)
			}
			absorbed++
		}
	}
	t.Logf("%d runs caught by the audit, %d absorbed into a valid result", audited, absorbed)
	if audited != 134 {
		t.Errorf("%d runs surfaced an *AuditError, want 134", audited)
	}
}

// TestChaosStalledLevel aims every coarsen.match fault at the Match
// that stalls, the one whose level coarsening drops. Corrupting,
// cancelling or delaying it leaves the partition of the clean run
// unchanged, since the level is dropped either way; a panic there is
// recovered with the hierarchy prefix kept. Every outcome must pass
// the oracle.
func TestChaosStalledLevel(t *testing.T) {
	c, err := GenerateCircuit(CircuitSpec{Name: "chaos-stall", Cells: 2000, Nets: 2150, Pins: 7000, Seed: 53})
	if err != nil {
		t.Fatal(err)
	}
	h := c.H
	run := func(entries ...FaultEntry) (*Partition, Info, ReportStartStats, error) {
		tel := NewTelemetry()
		opt := Options{Seed: 63, Audit: true, Telemetry: tel, Inject: &FaultPlan{Seed: 7, Entries: entries}}
		p, info, err := BipartitionCtx(context.Background(), h, opt)
		return p, info, tel.Report().PerStart[0], err
	}
	clean, cleanInfo, stats, err := run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.CoarsenStop != telemetry.CoarsenStopStalled {
		t.Fatalf("the clean run's coarsening stopped with %q, want a stall", stats.CoarsenStop)
	}
	// Match runs once per kept level, then once more for the level
	// that stalled.
	stalled := cleanInfo.Levels + 1
	for _, kind := range faultinject.Kinds {
		t.Run(kind.String(), func(t *testing.T) {
			p, info, stats, err := run(faultinject.On(faultinject.SiteCoarsenMatch, kind, stalled))
			checkChaosOutcome(t, h, 2, p, info, err)
			if p == nil {
				t.Fatal("no partition")
			}
			if want := oracle.Cut(h, p); info.Cut != want {
				t.Fatalf("reported cut %d, oracle %d", info.Cut, want)
			}
			if got := info.StartReports[0].Faults; got != 1 {
				t.Fatalf("%d faults fired, want 1", got)
			}
			if kind == FaultPanic {
				if info.StartReports[0].Outcome != StartRecovered || info.Levels != cleanInfo.Levels {
					t.Errorf("start %v with %d levels, want %v with the clean run's %d", info.StartReports[0].Outcome, info.Levels, StartRecovered, cleanInfo.Levels)
				}
				return
			}
			if err != nil || !slices.Equal(p.Part, clean.Part) {
				t.Errorf("a %s fault on the dropped level changed the run (err %v)", kind, err)
			}
			want := telemetry.CoarsenStopStalled
			if kind == FaultCancel {
				want = telemetry.CoarsenStopCancelled
			}
			if stats.CoarsenStop != want {
				t.Errorf("coarsening stopped with %q, want %q", stats.CoarsenStop, want)
			}
		})
	}
}
