package kway

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"mlpart/internal/fm"
	"mlpart/internal/gainbucket"
	"mlpart/internal/hypergraph"
	"mlpart/internal/netgen"
)

// TestRefineSteadyStateAllocations pins the Workspace contract: once a
// Workspace has grown to an instance, Refine allocates a fixed number
// of objects per call — the refiner header and the two block-seen
// arrays of the sum-of-degrees recounts — however many passes, moves
// and cells the run has.
func TestRefineSteadyStateAllocations(t *testing.T) {
	c, err := netgen.Generate(netgen.Spec{Name: "allocs", Cells: 2000, Nets: 2200, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	h := c.H
	check := func(cfg Config) {
		init := hypergraph.RandomPartition(h, cfg.K, 0.1, rand.New(rand.NewSource(1)))
		p := init.Clone()
		cfg.WS = &Workspace{}
		rng := rand.New(rand.NewSource(2))
		refine := func() {
			copy(p.Part, init.Part)
			if _, err := Refine(h, p, cfg, rng); err != nil {
				t.Fatal(err)
			}
		}
		refine() // warm the workspace
		name := fmt.Sprintf("K=%d %v/%v/%v", cfg.K, cfg.Engine, cfg.Objective, cfg.Order)
		if allocs := testing.AllocsPerRun(5, refine); allocs > 3 {
			t.Errorf("%s: %.1f allocations per Refine with a warm Workspace, want ≤ 3", name, allocs)
		}
	}
	for _, k := range []int{4, 8} {
		for _, eng := range []fm.Engine{fm.EngineFM, fm.EngineCLIP} {
			for _, obj := range []Objective{SumOfDegrees, NetCut} {
				check(Config{K: k, Engine: eng, Objective: obj})
			}
		}
	}
	// Random order shuffles each bucket it scans in a scratch buffer
	// the bucket structure keeps.
	check(Config{K: 4, Engine: fm.EngineFM, Objective: SumOfDegrees, Order: gainbucket.Random})
}

// TestReserveCoversFinerLevels pins the once-per-attempt sizing: a
// Workspace reserved for the finest level refines the whole
// uncoarsening sequence, coarsest level first, without regrowing any
// buffer.
func TestReserveCoversFinerLevels(t *testing.T) {
	levels := coarseLevels(t, 2000, 5)
	caps := func(w *Workspace) []int {
		return []int{cap(w.active), cap(w.counts), cap(w.span), cap(w.gain), cap(w.initKey), cap(w.locked),
			cap(w.areas), cap(w.moveCells), cap(w.moveFrom), cap(w.buckets)}
	}
	for _, eng := range []fm.Engine{fm.EngineFM, fm.EngineCLIP} {
		for _, k := range []int{2, 4, 8} {
			cfg, err := Config{K: k, Engine: eng, WS: &Workspace{}}.Normalize()
			if err != nil {
				t.Fatal(err)
			}
			cfg.WS.Reserve(cfg, levels[0].NumCells(), levels[0].NumNets())
			reserved := caps(cfg.WS)
			for i := len(levels) - 1; i >= 0; i-- {
				h := levels[i]
				p := hypergraph.RandomPartition(h, k, 0.1, rand.New(rand.NewSource(int64(i))))
				if _, err := Refine(h, p, cfg, rand.New(rand.NewSource(7))); err != nil {
					t.Fatal(err)
				}
				if got := caps(cfg.WS); !reflect.DeepEqual(got, reserved) {
					t.Fatalf("%v K=%d level %d (%d cells): buffer capacities %v after Refine, reserved %v", eng, k, i, h.NumCells(), got, reserved)
				}
			}
		}
	}
}
