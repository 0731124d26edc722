package kway

import (
	"math/rand"
	"slices"
	"testing"

	"mlpart/internal/faultinject"
	"mlpart/internal/fm"
	"mlpart/internal/hypergraph"
	"mlpart/internal/telemetry"
)

// TestPassContract pins the pass loop the k-way engines share with
// package fm's: MaxPasses, a Stop hook and a kway.refine cancel each
// end the run at the boundary after the first pass with the same
// partition, and telemetry records one pass per pass run, under the
// engine's label.
func TestPassContract(t *testing.T) {
	h := randomH(rand.New(rand.NewSource(7)), 160, 320, 5)
	start := hypergraph.RandomPartition(h, 4, 0.1, rand.New(rand.NewSource(7)))
	for _, tc := range []struct {
		eng   fm.Engine
		label string
	}{{fm.EngineFM, "kway-FM"}, {fm.EngineCLIP, "kway-CLIP"}} {
		eng, label := tc.eng, tc.label
		t.Run(label, func(t *testing.T) {
			run := func(cfg Config) (*hypergraph.Partition, Result) {
				t.Helper()
				cfg.K, cfg.Engine = 4, eng
				p := start.Clone()
				res, err := Refine(h, p, cfg, rand.New(rand.NewSource(1)))
				if err != nil {
					t.Fatal(err)
				}
				return p, res
			}
			one, res := run(Config{MaxPasses: 1})
			if res.Passes != 1 || res.Interrupted || res.Moves == 0 {
				t.Fatalf("MaxPasses 1: %+v, want one improving pass", res)
			}

			polls := 0
			stop := func() bool { polls++; return polls == 2 }
			plan, err := faultinject.ParseSpecs([]string{"kway.refine:cancel:2"}, 1)
			if err != nil {
				t.Fatal(err)
			}
			for name, cfg := range map[string]Config{
				"stop":   {Stop: stop},
				"cancel": {Inject: plan.NewInjector(0)},
			} {
				p, res := run(cfg)
				if !res.Interrupted || res.Passes != 1 {
					t.Errorf("%s: %+v, want interrupted after one pass", name, res)
				}
				if !slices.Equal(p.Part, one.Part) {
					t.Errorf("%s: partition differs from the MaxPasses 1 run", name)
				}
			}

			c := telemetry.New()
			_, res = run(Config{Telemetry: c})
			passes := c.TakeStart(0, "", res.SumDegrees, 0).Passes
			if res.Passes < 2 || len(passes) != res.Passes {
				t.Fatalf("%d passes recorded for %d run, want one per pass and at least 2", len(passes), res.Passes)
			}
			kept := 0
			for i, ps := range passes {
				if ps.Engine != label || ps.Pass != i {
					t.Errorf("pass %d recorded as %q pass %d", i, ps.Engine, ps.Pass)
				}
				kept += ps.MovesKept
			}
			if kept != res.Moves {
				t.Errorf("recorded %d kept moves, result %d", kept, res.Moves)
			}
		})
	}
}
