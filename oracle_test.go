package mlpart

// Differential "Oracle" tests: every optimized pipeline result is
// cross-checked against internal/oracle's from-scratch recomputations
// (map-based cut counting, literal move-and-recount gains, first-
// principles balance bounds). CI runs these with -count=2 and -race;
// together with the workspace threading of the hot paths this is the
// aliasing-bug safety net — a stale buffer that leaks between levels
// or attempts shows up as an oracle disagreement here.

import (
	"slices"
	"testing"

	"mlpart/internal/oracle"
)

// oracleCircuits returns the small pinned instances the differential
// tests sweep.
func oracleCircuits(t *testing.T) []*Circuit {
	t.Helper()
	specs := []CircuitSpec{
		{Name: "odiff-a", Cells: 300, Nets: 330, Pins: 1050, Seed: 11},
		{Name: "odiff-b", Cells: 450, Nets: 500, Pins: 1600, Seed: 12},
		{Name: "odiff-c", Cells: 600, Nets: 640, Pins: 2100, Seed: 13},
	}
	out := make([]*Circuit, 0, len(specs))
	for _, s := range specs {
		c, err := GenerateCircuit(s)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, c)
	}
	return out
}

// TestOracleBipartitionAcrossSeedsAndParallelism sweeps instances ×
// seeds × Parallelism values and requires every reported cut to equal
// the oracle recount on the returned partition, the partition to
// re-validate, and the balance bound to hold by recomputation. The
// Parallelism sweep exercises the per-attempt workspace isolation:
// shared scratch between concurrent starts would corrupt a partition
// or its cut here.
func TestOracleBipartitionAcrossSeedsAndParallelism(t *testing.T) {
	for _, c := range oracleCircuits(t) {
		for seed := int64(1); seed <= 3; seed++ {
			for _, par := range []int{1, 4} {
				p, info, err := Bipartition(c.H, Options{Seed: seed, Starts: 4, Parallelism: par})
				if err != nil {
					t.Fatalf("%s seed %d par %d: %v", c.Spec.Name, seed, par, err)
				}
				if !oracle.Validate(c.H, p, 2) {
					t.Fatalf("%s seed %d par %d: invalid partition", c.Spec.Name, seed, par)
				}
				if want := oracle.Cut(c.H, p); info.Cut != want {
					t.Fatalf("%s seed %d par %d: reported cut %d, oracle %d",
						c.Spec.Name, seed, par, info.Cut, want)
				}
				if !oracle.Balanced(c.H, p, 0.1) {
					t.Fatalf("%s seed %d par %d: oracle finds the §III.B bound violated",
						c.Spec.Name, seed, par)
				}
			}
		}
	}
}

// TestOracleQuadrisectAcrossParallelism does the same for the k-way
// pipeline: CutNets and SumDegrees against the oracle, validity, and
// the 4-way balance bound.
func TestOracleQuadrisectAcrossParallelism(t *testing.T) {
	for _, c := range oracleCircuits(t)[:2] {
		for _, par := range []int{1, 4} {
			p, info, err := Quadrisect(c.H, Options{Seed: 21, Starts: 2, Parallelism: par})
			if err != nil {
				t.Fatalf("%s par %d: %v", c.Spec.Name, par, err)
			}
			if !oracle.Validate(c.H, p, 4) {
				t.Fatalf("%s par %d: invalid partition", c.Spec.Name, par)
			}
			if want := oracle.Cut(c.H, p); info.Cut != want {
				t.Fatalf("%s par %d: reported cut-nets %d, oracle %d", c.Spec.Name, par, info.Cut, want)
			}
			if want := oracle.SumOfDegrees(c.H, p); info.SumDegrees != want {
				t.Fatalf("%s par %d: reported sum-of-degrees %d, oracle %d", c.Spec.Name, par, info.SumDegrees, want)
			}
			if !oracle.Balanced(c.H, p, 0.1) {
				t.Fatalf("%s par %d: oracle finds the 4-way bound violated", c.Spec.Name, par)
			}
		}
	}
}

// TestOracleVCycleAndRecursiveBisect covers the remaining public
// entry points that reuse workspaces across whole cycles (VCycle) and
// across recursion (RecursiveBisect).
func TestOracleVCycleAndRecursiveBisect(t *testing.T) {
	c := oracleCircuits(t)[0]
	h := c.H
	p, _, err := Bipartition(h, Options{Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	// The audited V-cycle runs the per-level invariant checks of the
	// level driver; it must pass them and return the same solution.
	var first *Partition
	for _, cfg := range []MLConfig{{}, {Audit: true}} {
		pv, cut, err := VCycle(h, p, 3, cfg, 32)
		if err != nil {
			t.Fatal(err)
		}
		if want := oracle.WeightedCut(h, pv); cut != want {
			t.Fatalf("VCycle (Audit %v) reported cut %d, oracle %d", cfg.Audit, cut, want)
		}
		if !oracle.Validate(h, pv, 2) || !oracle.Balanced(h, pv, 0.1) {
			t.Fatalf("VCycle (Audit %v) solution fails oracle validity/balance", cfg.Audit)
		}
		if first == nil {
			first = pv
		} else if !slices.Equal(first.Part, pv.Part) {
			t.Fatal("Audit changed the V-cycle solution")
		}
	}
	pr, err := RecursiveBisect(h, 4, MLConfig{}, 33)
	if err != nil {
		t.Fatal(err)
	}
	if !oracle.Validate(h, pr, 4) {
		t.Fatal("RecursiveBisect solution fails oracle validity")
	}
	if got, want := pr.Cut(h), oracle.Cut(h, pr); got != want {
		t.Fatalf("RecursiveBisect cut %d, oracle %d", got, want)
	}
}

// TestOracleUnderFaultInjection runs the bipartitioner under the
// fault plans of the chaos suite (recovered panics, synthetic
// cancellations, corrupted intermediates) and still requires oracle
// agreement: whatever degraded path produced the partition, the
// reported cut must be a true recount and the §III.B bound must hold.
func TestOracleUnderFaultInjection(t *testing.T) {
	c := oracleCircuits(t)[1]
	h := c.H
	// Panic entries are confined to start 0 (spec suffix ":0") so the
	// remaining starts stay clean and the run-level error is nil; the
	// cancel/corrupt entries apply to every start.
	plans := map[string][]string{
		"fm-panic":        {"fm.pass:panic:2:0"},
		"fm-cancel":       {"fm.pass:cancel:4"},
		"project-corrupt": {"core.project:corrupt:1"},
		"match-cancel":    {"coarsen.match:cancel:3"},
		"match-corrupt":   {"coarsen.match:corrupt:1"},
		"mixed":           {"fm.pass:panic:1:0", "core.rebalance:corrupt:1"},
	}
	for name, specs := range plans {
		t.Run(name, func(t *testing.T) {
			plan, err := ParseFaultSpec(specs, 17)
			if err != nil {
				t.Fatal(err)
			}
			p, info, err := Bipartition(h, Options{Seed: 41, Starts: 3, Parallelism: 2, Inject: plan})
			if err != nil {
				t.Fatalf("faults confined to some starts must not fail the run: %v", err)
			}
			if !oracle.Validate(h, p, 2) {
				t.Fatal("invalid partition under fault injection")
			}
			if want := oracle.Cut(h, p); info.Cut != want {
				t.Fatalf("reported cut %d, oracle %d", info.Cut, want)
			}
			if !oracle.Balanced(h, p, 0.1) {
				t.Fatal("oracle finds the balance bound violated under fault injection")
			}
		})
	}
}
