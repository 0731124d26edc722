package fm

import (
	"math/rand"
	"testing"

	"mlpart/internal/hypergraph"
	"mlpart/internal/netgen"
)

// TestRefineSteadyStateAllocations pins the Workspace contract: once
// a Workspace has grown to an instance, Refine allocates nothing per
// cell, pass or selection — only the refiner header itself.
func TestRefineSteadyStateAllocations(t *testing.T) {
	c, err := netgen.Generate(netgen.Spec{Name: "allocs", Cells: 2000, Nets: 2200, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	h := c.H
	init := hypergraph.RandomPartition(h, 2, 0.1, rand.New(rand.NewSource(1)))
	p := init.Clone()
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"FM", Config{Engine: EngineFM}},
		{"CLIP", Config{Engine: EngineCLIP}},
		{"CLIP+lookahead3", Config{Engine: EngineCLIP, Lookahead: 3}},
		{"FM+boundary", Config{Engine: EngineFM, Boundary: true}},
	} {
		cfg := tc.cfg
		cfg.WS = &Workspace{}
		rng := rand.New(rand.NewSource(2))
		refine := func() {
			copy(p.Part, init.Part)
			if _, err := Refine(h, p, cfg, rng); err != nil {
				t.Fatal(err)
			}
		}
		refine() // warm the workspace
		if allocs := testing.AllocsPerRun(5, refine); allocs > 1 {
			t.Errorf("%s: %.0f allocations per Refine with a warm Workspace, want ≤ 1", tc.name, allocs)
		}
	}
}
