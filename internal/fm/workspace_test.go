package fm

import (
	"math/rand"
	"reflect"
	"testing"

	"mlpart/internal/gainbucket"
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
		{"FM/Random", Config{Engine: EngineFM, Order: gainbucket.Random}},
		{"CLIP/Random", Config{Engine: EngineCLIP, Order: gainbucket.Random}},
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

// TestReserveCoversFinerLevels pins the once-per-attempt sizing: a
// Workspace reserved for the finest level refines the whole
// uncoarsening sequence, coarsest level first, without regrowing any
// buffer its engine reads.
func TestReserveCoversFinerLevels(t *testing.T) {
	levels := coarseLevels(t, 2000, 5)
	caps := func(w *Workspace) []int {
		return []int{cap(w.nets), cap(w.netXor), cap(w.gain), cap(w.initKey), cap(w.locked),
			cap(w.moveCells), cap(w.active), cap(w.pc[0]), cap(w.pc[1]), cap(w.lc[0]), cap(w.lc[1]),
			cap(w.gainF), cap(w.initKeyF), cap(w.version)}
	}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"FM", Config{Engine: EngineFM}},
		{"CLIP", Config{Engine: EngineCLIP}},
		{"CL-PR", Config{Engine: EngineCLIPPROP}},
	} {
		cfg, err := tc.cfg.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		cfg.WS = &Workspace{}
		cfg.WS.Reserve(cfg, levels[0].NumCells(), levels[0].NumNets())
		reserved := caps(cfg.WS)
		for i := len(levels) - 1; i >= 0; i-- {
			h := levels[i]
			p := hypergraph.RandomPartition(h, 2, 0.1, rand.New(rand.NewSource(int64(i))))
			if _, err := Refine(h, p, cfg, rand.New(rand.NewSource(7))); err != nil {
				t.Fatal(err)
			}
			if got := caps(cfg.WS); !reflect.DeepEqual(got, reserved) {
				t.Fatalf("%s level %d (%d cells): buffer capacities %v after Refine, reserved %v", tc.name, i, h.NumCells(), got, reserved)
			}
		}
	}
}
