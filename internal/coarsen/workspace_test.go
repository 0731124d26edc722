package coarsen

import (
	"math/rand"
	"reflect"
	"testing"

	"mlpart/internal/hypergraph"
)

// TestWorkspaceMatchBitIdentical pins the workspace contract: Match
// with a reused Workspace — including one carrying dirty buffers from
// a differently-sized previous call — consumes the RNG identically and
// returns the same clustering as the allocating path.
func TestWorkspaceMatchBitIdentical(t *testing.T) {
	ws := &Workspace{}
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(500 + seed))
		n := 60 + int(seed%4)*50 // shrink and regrow the buffers
		h := randomH(rng, n, n+15, 5)
		for _, ratio := range []float64{1.0, 0.5} {
			cFresh, err := Match(h, Config{Ratio: ratio}, rand.New(rand.NewSource(seed)))
			if err != nil {
				t.Fatal(err)
			}
			cWS, err := Match(h, Config{Ratio: ratio, WS: ws}, rand.New(rand.NewSource(seed)))
			if err != nil {
				t.Fatal(err)
			}
			if cFresh.NumClusters != cWS.NumClusters {
				t.Fatalf("seed %d R=%v: cluster counts %d vs %d", seed, ratio, cFresh.NumClusters, cWS.NumClusters)
			}
			for v := range cFresh.CellToCluster {
				if cFresh.CellToCluster[v] != cWS.CellToCluster[v] {
					t.Fatalf("seed %d R=%v: clusterings diverge at cell %d", seed, ratio, v)
				}
			}
		}
	}
}

// TestMatchSteadyStateAllocations is the regression test for the
// hoisted candidate-score buffers: once the workspace is warm, a Match
// call allocates only the returned Clustering (the struct and its
// CellToCluster slice) — zero allocations per vertex — so the per-call
// allocation count must not grow with the instance size.
func TestMatchSteadyStateAllocations(t *testing.T) {
	measure := func(n int) float64 {
		rng := rand.New(rand.NewSource(9))
		h := randomH(rng, n, n+n/10, 5)
		cfg := Config{Ratio: 1.0, WS: &Workspace{}}
		mrng := rand.New(rand.NewSource(1))
		if _, err := Match(h, cfg, mrng); err != nil { // warm the workspace
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := Match(h, cfg, mrng); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := measure(200), measure(2000)
	// The Clustering escape is 2 allocations; leave headroom for the
	// runtime's accounting jitter but nothing n-proportional.
	if small > 4 || large > 4 {
		t.Fatalf("steady-state Match allocations: n=200 → %.0f, n=2000 → %.0f; want ≤ 4 (zero per vertex)", small, large)
	}
	if large > small {
		t.Fatalf("Match allocations grow with n: %.0f → %.0f", small, large)
	}
}

// TestMatchIntoDirtyDestination checks MatchInto against Match when
// the destination holds a larger clustering from an earlier call: the
// array is reused, and every entry is rewritten.
func TestMatchIntoDirtyDestination(t *testing.T) {
	dst := &hypergraph.Clustering{CellToCluster: make([]int32, 400), NumClusters: 7}
	for v := range dst.CellToCluster {
		dst.CellToCluster[v] = 12345
	}
	backing := &dst.CellToCluster[0]
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(700 + seed))
		h := randomH(rng, 100+int(seed)*50, 130+int(seed)*50, 5)
		want, err := Match(h, Config{}, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		if err := MatchInto(h, Config{}, rand.New(rand.NewSource(seed)), dst); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, dst) {
			t.Fatalf("seed %d: MatchInto into a dirty destination differs from Match", seed)
		}
		if &dst.CellToCluster[0] != backing {
			t.Fatalf("seed %d: MatchInto reallocated a destination array long enough to reuse", seed)
		}
	}
}
