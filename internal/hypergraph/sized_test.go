package hypergraph_test

import (
	"fmt"
	"maps"
	"math/rand"
	"runtime"
	"testing"

	"mlpart/internal/coarsen"
	"mlpart/internal/hypergraph"
	"mlpart/internal/intrapar"
	"mlpart/internal/netgen"
)

// TestInduceWorkspaceSizedOnce pins the sizing contract of
// InduceWorkspace: threaded through a whole R = 0.5 hierarchy, every
// buffer takes its final capacity at the first (finest) call, and a
// second pass over the same levels allocates nothing but the arrays
// each returned hypergraph keeps — the struct, areas, netStart,
// netPins, cellStart, cellNets and, for a weighted level, the weights.
func TestInduceWorkspaceSizedOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	circ := netgen.MustGenerate(netgen.Spec{Name: "sized", Cells: 8000, Nets: 8500, Pins: 28000, Seed: 1997})
	for _, width := range []int{0, 2} {
		t.Run(fmt.Sprintf("intra%d", width), func(t *testing.T) {
			var pool *intrapar.Pool
			if width > 0 {
				pool = intrapar.New(width)
				defer pool.Close()
			}
			var ws hypergraph.InduceWorkspace
			var mws coarsen.Workspace
			rng := rand.New(rand.NewSource(7))
			hs := []*hypergraph.Hypergraph{circ.H}
			var cs []*hypergraph.Clustering
			var caps map[string]int
			for h := circ.H; h.NumCells() > 35; h = hs[len(hs)-1] {
				c, err := coarsen.Match(h, coarsen.Config{Ratio: 0.5, WS: &mws, Par: pool}, rng)
				if err != nil {
					t.Fatal(err)
				}
				coarse, err := hypergraph.InduceWSPar(h, c, &ws, pool)
				if err != nil {
					t.Fatal(err)
				}
				if coarse.NumCells() >= h.NumCells() {
					break
				}
				if caps == nil {
					caps = ws.BufferCaps()
				} else if got := ws.BufferCaps(); !maps.Equal(got, caps) {
					t.Fatalf("level %d grew the workspace: %v, finest level left %v", len(cs), got, caps)
				}
				hs = append(hs, coarse)
				cs = append(cs, c)
			}
			if len(cs) < 10 {
				t.Fatalf("hierarchy has %d levels, want a deep R = 0.5 one", len(cs))
			}

			// The finest call on a fresh workspace allocates the result
			// and the workspace's buffers at their final size, with no
			// garbage from growing them on the way.
			var fresh hypergraph.InduceWorkspace
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := hypergraph.InduceWSPar(hs[0], cs[0], &fresh, pool); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			kept := keptBytes(hs[1]) + fresh.BufferBytes()
			got := after.TotalAlloc - before.TotalAlloc
			t.Logf("finest call: %d bytes, result and workspace %d", got, kept)
			if limit := kept + kept/8 + 8<<10; got > limit {
				t.Errorf("finest call on a fresh workspace: %d bytes, want ≤ %d (result and workspace %d)", got, limit, kept)
			}

			want := 0
			for _, coarse := range hs[1:] {
				want += 6
				if coarse.Weighted() {
					want++
				}
			}
			allocs := testing.AllocsPerRun(3, func() {
				for i, c := range cs {
					if _, err := hypergraph.InduceWSPar(hs[i], c, &ws, pool); err != nil {
						t.Fatal(err)
					}
				}
			})
			t.Logf("%d levels: %.0f allocations, budget %d", len(cs), allocs, want)
			if allocs > float64(want) {
				t.Errorf("second pass over %d levels: %.0f allocations, want ≤ %d (the returned hypergraphs' arrays)", len(cs), allocs, want)
			}
			if got := ws.BufferCaps(); !maps.Equal(got, caps) {
				t.Errorf("second pass grew the workspace: %v, finest level left %v", got, caps)
			}
		})
	}
}

// keptBytes is the size of the arrays a hypergraph keeps.
func keptBytes(h *hypergraph.Hypergraph) uint64 {
	n := 8*h.NumCells() + 4*(h.NumNets()+1) + 8*h.NumPins() + 4*(h.NumCells()+1)
	if h.Weighted() {
		n += 4 * h.NumNets()
	}
	return uint64(n)
}
