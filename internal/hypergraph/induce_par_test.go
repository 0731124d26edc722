package hypergraph

import (
	"math/rand"
	"testing"

	"mlpart/internal/intrapar"
)

// buildRandom builds a random weighted hypergraph and a random
// clustering with k non-empty clusters for the parallel-induce tests.
func buildRandom(rng *rand.Rand, n, m int) (*Hypergraph, *Clustering) {
	b := NewBuilder(n)
	for v := 0; v < n; v++ {
		b.SetArea(v, int64(1+rng.Intn(3)))
	}
	for e := 0; e < m; e++ {
		size := 2 + rng.Intn(5)
		pins := make([]int, size)
		for i := range pins {
			pins[i] = rng.Intn(n)
		}
		if rng.Intn(4) == 0 {
			b.AddWeightedNet(int32(2+rng.Intn(4)), pins...)
		} else {
			b.AddNet(pins...)
		}
	}
	h := b.MustBuild()
	k := 1 + rng.Intn(n)
	c := &Clustering{CellToCluster: make([]int32, n), NumClusters: k}
	for i, v := range rng.Perm(n) {
		if i < k {
			c.CellToCluster[v] = int32(i) //mllint:ignore unchecked-narrow cluster id < n, test-sized
		} else {
			c.CellToCluster[v] = int32(rng.Intn(k)) //mllint:ignore unchecked-narrow cluster id < n, test-sized
		}
	}
	return h, c
}

// sameCSR compares every retained array of two induced hypergraphs
// byte for byte (same package: the unexported CSR arrays are the
// ground truth the byte-identity contract is stated over).
func sameCSR(t *testing.T, want, got *Hypergraph) {
	t.Helper()
	if got.numCells != want.numCells || got.numNets != want.numNets ||
		got.totalArea != want.totalArea || got.minArea != want.minArea || got.maxArea != want.maxArea {
		t.Fatalf("header differs: (%d,%d,%d,%d,%d) vs (%d,%d,%d,%d,%d)",
			want.numCells, want.numNets, want.totalArea, want.minArea, want.maxArea,
			got.numCells, got.numNets, got.totalArea, got.minArea, got.maxArea)
	}
	check := func(name string, a, b []int32) {
		t.Helper()
		if len(a) != len(b) {
			t.Fatalf("%s length differs: %d vs %d", name, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s[%d] differs: %d vs %d", name, i, a[i], b[i])
			}
		}
	}
	check("netStart", want.netStart, got.netStart)
	check("netPins", want.netPins, got.netPins)
	check("cellStart", want.cellStart, got.cellStart)
	check("cellNets", want.cellNets, got.cellNets)
	check("netWeight", want.netWeight, got.netWeight)
	if len(want.area) != len(got.area) {
		t.Fatalf("area length differs")
	}
	for i := range want.area {
		if want.area[i] != got.area[i] {
			t.Fatalf("area[%d] differs: %d vs %d", i, want.area[i], got.area[i])
		}
	}
}

// referenceInduce builds the coarse netlist of Definition 1 through
// Builder, whose documented contract (pins sorted ascending and
// deduplicated, nets with fewer than two pins dropped, net order kept,
// weighted iff a kept net has weight ≠ 1) is the one InduceWSPar
// promises to reproduce byte for byte.
func referenceInduce(t *testing.T, h *Hypergraph, c *Clustering) *Hypergraph {
	t.Helper()
	b := NewBuilder(c.NumClusters)
	area := make([]int64, c.NumClusters)
	for v := 0; v < h.NumCells(); v++ {
		area[c.CellToCluster[v]] += h.Area(v)
	}
	for k, a := range area {
		b.SetArea(k, a)
	}
	for e := 0; e < h.NumNets(); e++ {
		var pins []int32
		for _, p := range h.Pins(e) {
			pins = append(pins, c.CellToCluster[p])
		}
		b.AddWeightedNet32(h.NetWeight(e), pins)
	}
	want, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// TestInduceWSParIdenticalToSerial pins the byte-identity contract of
// the assembly against the Builder reference across pool widths (the
// nil one-wide pool, 1, 2 and 8 workers), instance sizes (fewer nets
// than workers, and full-width fan-out) and dirty reused workspaces.
func TestInduceWSParIdenticalToSerial(t *testing.T) {
	ws := &InduceWorkspace{} // deliberately shared and dirty across cases
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(400)
		m := rng.Intn(600)
		h, c := buildRandom(rng, n, m)
		want := referenceInduce(t, h, c)
		if got, err := InduceWSPar(h, c, ws, nil); err != nil {
			t.Fatal(err)
		} else {
			sameCSR(t, want, got)
		}
		for _, workers := range []int{1, 2, 8} {
			pool := intrapar.New(workers)
			got, err := InduceWSPar(h, c, ws, pool)
			pool.Close()
			if err != nil {
				t.Fatal(err)
			}
			sameCSR(t, want, got)
		}
	}
}

// TestInduceWSParTinyInstances exercises the degenerate shapes: no
// nets at all, and fewer nets than workers (unissued ranges must not
// leak stale buffers into the merge), at every pool width.
func TestInduceWSParTinyInstances(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 8} {
		var pool *intrapar.Pool // nil: the one-wide inline pool
		if workers > 0 {
			pool = intrapar.New(workers)
		}
		ws := &InduceWorkspace{}
		// First, a big instance to dirty the per-worker buffers.
		rng := rand.New(rand.NewSource(3))
		h, c := buildRandom(rng, 200, 300)
		if _, err := InduceWSPar(h, c, ws, pool); err != nil {
			t.Fatal(err)
		}
		for _, m := range []int{0, 1, 3} {
			h, c := buildRandom(rng, 10, m)
			got, err := InduceWSPar(h, c, ws, pool)
			if err != nil {
				t.Fatal(err)
			}
			sameCSR(t, referenceInduce(t, h, c), got)
		}
		pool.Close()
	}
}

// TestInduceIntoDirtyDestination pins the destination contract: a
// Hypergraph holding an earlier, larger level (every array entry then
// overwritten with garbage) must yield the same hypergraph as a fresh
// one. The garbage reaches every entry the call does not write, so a
// missing clear (the area sums, netStart[0], cellStart[0]) shows.
func TestInduceIntoDirtyDestination(t *testing.T) {
	ws := &InduceWorkspace{}
	dst := &Hypergraph{}
	rng := rand.New(rand.NewSource(17))
	for i, size := range []struct{ n, m int }{{400, 600}, {120, 150}, {300, 20}, {10, 0}, {250, 400}} {
		h, c := buildRandom(rng, size.n, size.m)
		for _, a := range [][]int32{dst.netStart, dst.netPins, dst.cellStart, dst.cellNets, dst.netWeight} {
			for j := range a[:cap(a)] {
				a[:cap(a)][j] = -99
			}
		}
		for j := range dst.area[:cap(dst.area)] {
			dst.area[:cap(dst.area)][j] = 1 << 40
		}
		netStart, area := dst.netStart[:cap(dst.netStart)], dst.area[:cap(dst.area)]
		got, err := InduceInto(h, c, ws, nil, dst)
		if err != nil {
			t.Fatal(err)
		}
		if got != dst {
			t.Fatalf("case %d: InduceInto returned a hypergraph other than dst", i)
		}
		sameCSR(t, referenceInduce(t, h, c), got)
		if i == 0 {
			continue
		}
		// Past the first call the destination is large enough for
		// every level, so nothing is reallocated.
		if &got.netStart[0] != &netStart[0] || &got.area[0] != &area[0] {
			t.Errorf("case %d: InduceInto reallocated arrays a larger earlier level left in dst", i)
		}
	}
}
