package audit

import (
	"strings"
	"testing"

	"mlpart/internal/hypergraph"
)

// testGraph: 6 cells, areas 1..6, nets {0,1,2} {2,3} {3,4,5} {0,5}.
func testGraph(t *testing.T) *hypergraph.Hypergraph {
	t.Helper()
	b := hypergraph.NewBuilder(6)
	for v := 0; v < 6; v++ {
		b.SetArea(v, int64(v+1))
	}
	b.AddNet(0, 1, 2).AddNet(2, 3).AddNet(3, 4, 5).AddNet(0, 5)
	h, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestCheckHypergraph(t *testing.T) {
	h := testGraph(t)
	if err := CheckHypergraph(h); err != nil {
		t.Fatal(err)
	}
	if err := CheckHypergraph(nil); err == nil {
		t.Error("nil hypergraph passed the audit")
	}
}

func TestCheckClustering(t *testing.T) {
	h := testGraph(t)
	// Pairs (0,1) (2,3) (4,5) → 3 clusters.
	c := &hypergraph.Clustering{CellToCluster: []int32{0, 0, 1, 1, 2, 2}, NumClusters: 3}
	coarse, err := hypergraph.InduceWSPar(h, c, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckClustering(h, c, coarse); err != nil {
		t.Fatal(err)
	}
	// A coarse hypergraph with the wrong cell count.
	if err := CheckClustering(h, c, h); err == nil {
		t.Error("cluster-count mismatch passed the audit")
	}
	// Break area conservation: swap in a coarse graph with unit areas.
	flat := hypergraph.NewBuilder(3).AddNet(0, 1).AddNet(1, 2).MustBuild()
	err = CheckClustering(h, c, flat)
	if err == nil || !strings.Contains(err.Error(), "area not conserved") {
		t.Errorf("area violation not caught: %v", err)
	}
	// Malformed clustering: cluster id out of range.
	bad := &hypergraph.Clustering{CellToCluster: []int32{0, 0, 1, 1, 2, 3}, NumClusters: 3}
	if err := CheckClustering(h, bad, nil); err == nil {
		t.Error("out-of-range cluster id passed the audit")
	}
}

func TestCheckPartitionFeasibility(t *testing.T) {
	h := testGraph(t)
	p := hypergraph.NewPartition(6, 2)
	// Blocks {0,1,4,5} area 12 vs {2,3} area 7; total 21.
	p.Part = []int32{0, 0, 1, 1, 0, 0}
	if err := CheckPartition(h, p, NoChecks()); err != nil {
		t.Fatal(err)
	}
	chk := NoChecks()
	chk.K = 2
	if err := CheckPartition(h, p, chk); err != nil {
		t.Fatal(err)
	}
	chk.K = 4
	if err := CheckPartition(h, p, chk); err == nil {
		t.Error("wrong K passed the audit")
	}
	// A bound tight enough to reject the 12/7 split.
	chk = NoChecks()
	bound := hypergraph.BalanceBound{Lo: 9, Hi: 12}
	chk.Bound = &bound
	if err := CheckPartition(h, p, chk); err == nil {
		t.Error("balance violation passed the audit")
	}
	bound = hypergraph.BalanceBound{Lo: 7, Hi: 14}
	if err := CheckPartition(h, p, chk); err != nil {
		t.Error(err)
	}
}

func TestCheckPartitionCutCrossCheck(t *testing.T) {
	h := testGraph(t)
	p := hypergraph.NewPartition(6, 2)
	p.Part = []int32{0, 0, 1, 1, 0, 0}
	// Cut nets: {0,1,2}, {3,4,5}, and {2,3} is internal to block 1,
	// {0,5} internal to block 0 → weighted cut 2.
	chk := NoChecks()
	chk.WeightedCut = p.WeightedCut(h)
	if err := CheckPartition(h, p, chk); err != nil {
		t.Fatal(err)
	}
	chk.WeightedCut++
	err := CheckPartition(h, p, chk)
	if err == nil || !strings.Contains(err.Error(), "from-scratch cut") {
		t.Errorf("stale incremental cut not caught: %v", err)
	}
	// Active cut with a net-size cutoff of 2: only {2,3} and {0,5}
	// qualify, both internal → 0.
	chk = NoChecks()
	chk.ActiveCut = 0
	chk.MaxNetSize = 2
	if err := CheckPartition(h, p, chk); err != nil {
		t.Fatal(err)
	}
	chk.ActiveCut = 1
	err = CheckPartition(h, p, chk)
	if err == nil || !strings.Contains(err.Error(), "active cut") {
		t.Errorf("stale active cut not caught: %v", err)
	}
	// No cutoff (MaxNetSize <= 0): active cut equals the full cut.
	chk = NoChecks()
	chk.ActiveCut = 2
	chk.MaxNetSize = 0
	if err := CheckPartition(h, p, chk); err != nil {
		t.Fatal(err)
	}
	// Sum of degrees: each cut net spans 2 blocks → Σ(span−1) = 2.
	chk = NoChecks()
	chk.SumDegrees = p.WeightedSumOfDegrees(h)
	if err := CheckPartition(h, p, chk); err != nil {
		t.Fatal(err)
	}
	chk.SumDegrees++
	if err := CheckPartition(h, p, chk); err == nil {
		t.Error("stale sum-of-degrees passed the audit")
	}
	// Malformed partition: block index out of range.
	q := hypergraph.NewPartition(6, 2)
	q.Part[5] = 7
	if err := CheckPartition(h, q, NoChecks()); err == nil {
		t.Error("out-of-range block passed the audit")
	}
}
