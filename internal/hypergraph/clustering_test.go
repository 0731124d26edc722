package hypergraph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestIdentityClustering(t *testing.T) {
	c := NewIdentityClustering(5)
	if err := c.Validate(5); err != nil {
		t.Fatalf("identity invalid: %v", err)
	}
	if c.NumClusters != 5 {
		t.Errorf("NumClusters = %d, want 5", c.NumClusters)
	}
	for _, s := range c.ClusterSizes() {
		if s != 1 {
			t.Errorf("identity cluster size %d, want 1", s)
		}
	}
}

func TestClusteringValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		c    *Clustering
		n    int
	}{
		{"wrong length", &Clustering{CellToCluster: []int32{0}, NumClusters: 1}, 2},
		{"out of range", &Clustering{CellToCluster: []int32{0, 3}, NumClusters: 2}, 2},
		{"negative", &Clustering{CellToCluster: []int32{0, -1}, NumClusters: 2}, 2},
		{"empty cluster", &Clustering{CellToCluster: []int32{0, 0}, NumClusters: 2}, 2},
		{"zero clusters", &Clustering{CellToCluster: []int32{}, NumClusters: 0}, 1},
	}
	for _, tc := range cases {
		if err := tc.c.Validate(tc.n); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

func TestInduceTiny(t *testing.T) {
	h := tiny(t)
	// Merge {0,1} and {4,5}; 2 and 3 stay singletons.
	c := &Clustering{CellToCluster: []int32{0, 0, 1, 2, 3, 3}, NumClusters: 4}
	coarse, err := InduceInto(h, c, nil, &Hypergraph{})
	if err != nil {
		t.Fatalf("induce: %v", err)
	}
	if coarse.NumCells() != 4 {
		t.Fatalf("coarse cells = %d, want 4", coarse.NumCells())
	}
	// net {0,1} collapses inside cluster 0 → dropped.
	// net {1,2,3} → {0,1,2}; net {3,4} → {2,3}; net {4,5} collapses;
	// net {0,5} → {0,3}. So 3 nets survive.
	if coarse.NumNets() != 3 {
		t.Fatalf("coarse nets = %d, want 3", coarse.NumNets())
	}
	if coarse.TotalArea() != h.TotalArea() {
		t.Errorf("area not conserved: %d vs %d", coarse.TotalArea(), h.TotalArea())
	}
	if err := coarse.Validate(); err != nil {
		t.Errorf("coarse invalid: %v", err)
	}
}

func TestInduceAreasSum(t *testing.T) {
	h, err := NewBuilder(4).
		SetArea(0, 4).SetArea(1, 7).SetArea(2, 1).SetArea(3, 3).
		AddNet(0, 1).AddNet(1, 2).AddNet(2, 3).
		Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	// Paper example: clustering two modules with areas 4 and 7 yields
	// a module of area 11.
	c := &Clustering{CellToCluster: []int32{0, 0, 1, 1}, NumClusters: 2}
	coarse, err := InduceInto(h, c, nil, &Hypergraph{})
	if err != nil {
		t.Fatalf("induce: %v", err)
	}
	if coarse.Area(0) != 11 {
		t.Errorf("cluster 0 area = %d, want 11", coarse.Area(0))
	}
	if coarse.Area(1) != 4 {
		t.Errorf("cluster 1 area = %d, want 4", coarse.Area(1))
	}
}

func TestInduceKeepsParallelNets(t *testing.T) {
	// Two distinct nets that map to the same coarse net must both
	// survive (the paper keeps parallel nets; each counts in the cut).
	h, err := NewBuilder(4).
		AddNet(0, 2).
		AddNet(1, 3).
		Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	c := &Clustering{CellToCluster: []int32{0, 0, 1, 1}, NumClusters: 2}
	coarse, err := InduceInto(h, c, nil, &Hypergraph{})
	if err != nil {
		t.Fatalf("induce: %v", err)
	}
	if coarse.NumNets() != 2 {
		t.Errorf("coarse nets = %d, want 2 (parallel nets preserved)", coarse.NumNets())
	}
}

func TestInduceInvalidClustering(t *testing.T) {
	h := tiny(t)
	c := &Clustering{CellToCluster: []int32{0, 0, 0}, NumClusters: 1} // wrong length
	if _, err := InduceInto(h, c, nil, &Hypergraph{}); err == nil {
		t.Error("expected error for invalid clustering")
	}
}

func TestCompose(t *testing.T) {
	// 6 cells → 3 clusters → 2 clusters.
	c := &Clustering{CellToCluster: []int32{0, 0, 1, 1, 2, 2}, NumClusters: 3}
	d := &Clustering{CellToCluster: []int32{0, 1, 1}, NumClusters: 2}
	e, err := Compose(c, d)
	if err != nil {
		t.Fatalf("compose: %v", err)
	}
	want := []int32{0, 0, 1, 1, 1, 1}
	for v, k := range e.CellToCluster {
		if k != want[v] {
			t.Errorf("compose cell %d → %d, want %d", v, k, want[v])
		}
	}
	if err := e.Validate(6); err != nil {
		t.Errorf("composed invalid: %v", err)
	}
}

func TestComposeMismatch(t *testing.T) {
	c := &Clustering{CellToCluster: []int32{0, 1}, NumClusters: 2}
	d := &Clustering{CellToCluster: []int32{0}, NumClusters: 1}
	if _, err := Compose(c, d); err == nil {
		t.Error("expected error for dimension mismatch")
	}
}

// randomClustering produces a valid random clustering of n cells.
func randomClustering(rng *rand.Rand, n int) *Clustering {
	return randomKClustering(rng, n, 1+rng.Intn(n))
}

func TestPropertyInduceConservesAreaAndValidates(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(50)
		h := randomHypergraph(rng, n, rng.Intn(100))
		c := randomClustering(rng, n)
		coarse, err := InduceInto(h, c, nil, &Hypergraph{})
		if err != nil {
			return false
		}
		return coarse.TotalArea() == h.TotalArea() && coarse.Validate() == nil &&
			coarse.NumNets() <= h.NumNets()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPropertyInduceNetSizesShrink(t *testing.T) {
	// |e*| ≤ |e| for every surviving net (no way to check identity of
	// nets post-drop, so check the global multiset bound instead:
	// coarse pin count ≤ fine pin count).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(50)
		h := randomHypergraph(rng, n, rng.Intn(100))
		c := randomClustering(rng, n)
		coarse, err := InduceInto(h, c, nil, &Hypergraph{})
		if err != nil {
			return false
		}
		return coarse.NumPins() <= h.NumPins()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
