package hypergraph_test

// FuzzProjectRoundTrip drives the induce/project pair of Definitions
// 1 and 2 at random instances and random clusterings: the coarse
// hypergraph must preserve the total area and the vertex accounting,
// a dirty reused workspace and a two-worker pool must reproduce the
// workspace-free one-wide induction exactly, and a coarse solution
// must keep its oracle-recomputed cut under projection (nets dropped
// by |e*| = 1 are exactly the nets a projected solution can never
// cut). The file lives in the external test package so it can import
// internal/oracle without a cycle.

import (
	"math/rand"
	"testing"

	"mlpart/internal/hypergraph"
	"mlpart/internal/intrapar"
	"mlpart/internal/oracle"
)

func FuzzProjectRoundTrip(f *testing.F) {
	// The five pinned corpus seeds.
	f.Add(int64(1), uint16(10), uint16(12), byte(3), byte(2))
	f.Add(int64(42), uint16(60), uint16(80), byte(17), byte(3))
	f.Add(int64(1997), uint16(200), uint16(260), byte(40), byte(4))
	f.Add(int64(-7), uint16(2), uint16(0), byte(1), byte(2))
	f.Add(int64(31337), uint16(300), uint16(350), byte(250), byte(5))
	f.Fuzz(func(t *testing.T, seed int64, cellsIn, netsIn uint16, kIn, blocksIn byte) {
		n := int(cellsIn)%300 + 2
		m := int(netsIn) % 400
		rng := rand.New(rand.NewSource(seed))

		b := hypergraph.NewBuilder(n)
		for v := 0; v < n; v++ {
			b.SetArea(v, int64(1+rng.Intn(3)))
		}
		weights := []int32{2, 3, 5}
		for e := 0; e < m; e++ {
			size := 2 + rng.Intn(5)
			pins := make([]int, size)
			for i := range pins {
				pins[i] = rng.Intn(n)
			}
			if rng.Intn(4) == 0 {
				b.AddWeightedNet(weights[rng.Intn(len(weights))], pins...)
			} else {
				b.AddNet(pins...)
			}
		}
		h := b.MustBuild()

		// A random clustering with k non-empty clusters: the first k
		// cells pin one cluster each, the rest land anywhere.
		k := int(kIn)%n + 1
		c := &hypergraph.Clustering{CellToCluster: make([]int32, n), NumClusters: k}
		perm := rng.Perm(n)
		for i, v := range perm {
			if i < k {
				c.CellToCluster[v] = int32(i) //mllint:ignore unchecked-narrow cluster id < n ≤ 302
			} else {
				c.CellToCluster[v] = int32(rng.Intn(k)) //mllint:ignore unchecked-narrow cluster id < n ≤ 302
			}
		}

		coarse, err := hypergraph.InduceWSPar(h, c, nil, nil)
		if err != nil {
			t.Fatalf("induce: %v", err)
		}
		if coarse.NumCells() != k {
			t.Fatalf("coarse has %d cells, clustering has %d clusters", coarse.NumCells(), k)
		}
		if coarse.TotalArea() != h.TotalArea() {
			t.Fatalf("induce changed total area: %d → %d", h.TotalArea(), coarse.TotalArea())
		}
		if err := coarse.Validate(); err != nil {
			t.Fatalf("induced hypergraph invalid: %v", err)
		}

		// The workspace path must match the allocating path exactly,
		// even when the workspace arrives dirty from another instance
		// and the assembly is split over two workers.
		ws := &hypergraph.InduceWorkspace{}
		pool := intrapar.New(2)
		defer pool.Close()
		if _, err := hypergraph.InduceWSPar(h, c, ws, pool); err != nil {
			t.Fatal(err)
		}
		coarse2, err := hypergraph.InduceWSPar(h, c, ws, pool)
		if err != nil {
			t.Fatal(err)
		}
		if coarse2.NumCells() != coarse.NumCells() || coarse2.NumNets() != coarse.NumNets() ||
			coarse2.NumPins() != coarse.NumPins() || coarse2.Weighted() != coarse.Weighted() {
			t.Fatal("workspace induction shape differs from the workspace-free one")
		}
		for e := 0; e < coarse.NumNets(); e++ {
			if coarse2.NetWeight(e) != coarse.NetWeight(e) {
				t.Fatalf("net %d weight differs", e)
			}
			a, b2 := coarse.Pins(e), coarse2.Pins(e)
			if len(a) != len(b2) {
				t.Fatalf("net %d pin count differs", e)
			}
			for i := range a {
				if a[i] != b2[i] {
					t.Fatalf("net %d pin %d differs", e, i)
				}
			}
		}
		for v := 0; v < k; v++ {
			if coarse.Area(v) != coarse2.Area(v) {
				t.Fatalf("cluster %d area differs", v)
			}
		}

		// A coarse solution keeps its cut under projection.
		blocks := int(blocksIn)%4 + 2
		pc := &hypergraph.Partition{Part: make([]int32, k), K: blocks}
		for v := range pc.Part {
			pc.Part[v] = int32(rng.Intn(blocks)) //mllint:ignore unchecked-narrow block id < 6
		}
		pf, err := hypergraph.Project(c, pc)
		if err != nil {
			t.Fatalf("project: %v", err)
		}
		if len(pf.Part) != n {
			t.Fatalf("projected partition covers %d cells, want %d", len(pf.Part), n)
		}
		if got, want := oracle.WeightedCut(h, pf), oracle.WeightedCut(coarse, pc); got != want {
			t.Fatalf("projection changed the oracle cut: coarse %d, fine %d", want, got)
		}
		if got, want := oracle.SumOfDegrees(h, pf), oracle.SumOfDegrees(coarse, pc); got != want {
			t.Fatalf("projection changed the oracle sum-of-degrees: coarse %d, fine %d", want, got)
		}

		// ProjectInto into a dirty undersized-then-reused buffer must
		// equal Project.
		buf := &hypergraph.Partition{Part: []int32{9, 9}, K: 1}
		if err := hypergraph.ProjectInto(c, pc, buf); err != nil {
			t.Fatalf("project into: %v", err)
		}
		if buf.K != pf.K || len(buf.Part) != len(pf.Part) {
			t.Fatal("ProjectInto shape differs from Project")
		}
		for v := range pf.Part {
			if buf.Part[v] != pf.Part[v] {
				t.Fatalf("ProjectInto diverges at cell %d", v)
			}
		}
	})
}
