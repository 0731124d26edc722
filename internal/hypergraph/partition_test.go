package hypergraph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCutTiny(t *testing.T) {
	h := tiny(t)
	p := &Partition{Part: []int32{0, 0, 0, 1, 1, 1}, K: 2}
	// nets: {0,1} uncut, {1,2,3} cut, {3,4} uncut, {4,5} uncut, {0,5} cut
	if got := p.Cut(h); got != 2 {
		t.Errorf("Cut = %d, want 2", got)
	}
}

func TestCutAllOneSide(t *testing.T) {
	h := tiny(t)
	p := NewPartition(6, 2)
	if got := p.Cut(h); got != 0 {
		t.Errorf("Cut = %d, want 0 for one-sided partition", got)
	}
}

func TestSumOfDegreesEqualsCutForBipartition(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := randomHypergraph(rng, 2+rng.Intn(40), rng.Intn(80))
		p := RandomPartition(h, 2, 0.1, rng)
		return p.Cut(h) == p.SumOfDegrees(h)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestNetSpan(t *testing.T) {
	h := tiny(t)
	p := &Partition{Part: []int32{0, 1, 2, 3, 0, 1}, K: 4}
	if got := p.NetSpan(h, 1); got != 3 { // net {1,2,3} touches 1,2,3
		t.Errorf("NetSpan(net 1) = %d, want 3", got)
	}
	if got := p.NetSpan(h, 2); got != 2 { // net {3,4} touches 3,0
		t.Errorf("NetSpan(net 2) = %d, want 2", got)
	}
}

func TestNetSpanLargeK(t *testing.T) {
	// Exercise the K > 64 fallback path.
	h := tiny(t)
	p := &Partition{Part: []int32{0, 70, 70, 3, 0, 99}, K: 100}
	if got := p.NetSpan(h, 0); got != 2 { // net {0,1} → blocks 0,70
		t.Errorf("NetSpan = %d, want 2", got)
	}
	if got := p.NetSpan(h, 1); got != 2 { // net {1,2,3} → blocks 70,70,3
		t.Errorf("NetSpan = %d, want 2", got)
	}
}

func TestBalanceBound(t *testing.T) {
	h, err := NewBuilder(10).AddNet(0, 1).Build()
	if err != nil {
		t.Fatal(err)
	}
	// Unit areas, A(V)=10, k=2, r=0.1: target 5, slack max(1, 0.5)=1.
	b := Balance(h, 2, 0.1)
	if b.Lo != 4 || b.Hi != 6 {
		t.Errorf("bound = [%d,%d], want [4,6]", b.Lo, b.Hi)
	}
	// Large-cell slack dominates: one cell of area 8.
	h2, err := NewBuilder(3).SetArea(0, 8).AddNet(0, 1).Build()
	if err != nil {
		t.Fatal(err)
	}
	b2 := Balance(h2, 2, 0.1) // A=10, target 5, slack max(8, 0.5)=8 → [0,13]
	if b2.Lo != 0 || b2.Hi != 13 {
		t.Errorf("bound = [%d,%d], want [0,13]", b2.Lo, b2.Hi)
	}
}

func TestRandomPartitionBalanced(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		h := randomHypergraph(rng, 10+rng.Intn(100), 20)
		for _, k := range []int{2, 4} {
			p := RandomPartition(h, k, 0.1, rng)
			bound := Balance(h, k, 0.1)
			if !p.IsBalanced(h, bound) {
				t.Errorf("k=%d random partition unbalanced: areas %v bound %+v",
					k, p.BlockAreas(h), bound)
			}
			if err := p.Validate(h.NumCells()); err != nil {
				t.Errorf("invalid partition: %v", err)
			}
		}
	}
}

func TestProjectDefinition2(t *testing.T) {
	// Fine cells 0..5 in clusters {0,1}→0, {2,3}→1, {4,5}→2; coarse
	// partition puts clusters 0,1 in X and 2 in Y.
	c := &Clustering{CellToCluster: []int32{0, 0, 1, 1, 2, 2}, NumClusters: 3}
	coarse := &Partition{Part: []int32{0, 0, 1}, K: 2}
	fine, err := Project(c, coarse)
	if err != nil {
		t.Fatalf("project: %v", err)
	}
	want := []int32{0, 0, 0, 0, 1, 1}
	for v, k := range fine.Part {
		if k != want[v] {
			t.Errorf("fine cell %d in block %d, want %d", v, k, want[v])
		}
	}
}

func TestProjectErrors(t *testing.T) {
	c := &Clustering{CellToCluster: []int32{0, 0}, NumClusters: 1}
	if _, err := Project(c, &Partition{Part: []int32{0, 1}, K: 2}); err == nil {
		t.Error("expected error for size mismatch")
	}
	if _, err := Project(c, &Partition{Part: []int32{0}, K: 0}); err == nil {
		t.Error("expected error for K=0")
	}
}

func TestPropertyProjectionPreservesCut(t *testing.T) {
	// The projected partition has exactly the same cut on the fine
	// hypergraph as the coarse partition has on the induced coarse
	// hypergraph — the central invariant of multilevel partitioning.
	// (Both count nets spanning >1 block; fine nets that collapsed
	// into singleton coarse nets are uncut because their pins share a
	// cluster and therefore a block.)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(40)
		h := randomHypergraph(rng, n, 5+rng.Intn(80))
		c := randomClustering(rng, n)
		coarse, err := InduceInto(h, c, nil, &Hypergraph{})
		if err != nil {
			return false
		}
		cp := RandomPartition(coarse, 2, 0.5, rng)
		fp, err := Project(c, cp)
		if err != nil {
			return false
		}
		return fp.Cut(h) == cp.Cut(coarse)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPropertyProjectionPreservesSumOfDegrees(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(40)
		h := randomHypergraph(rng, n, 5+rng.Intn(80))
		c := randomClustering(rng, n)
		coarse, err := InduceInto(h, c, nil, &Hypergraph{})
		if err != nil {
			return false
		}
		cp := RandomPartition(coarse, 4, 0.8, rng)
		fp, err := Project(c, cp)
		if err != nil {
			return false
		}
		return fp.SumOfDegrees(h) == cp.SumOfDegrees(coarse)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestRebalance(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := randomHypergraph(rng, 100, 50)
	p := NewPartition(100, 2) // everything in block 0: grossly unbalanced
	bound := Balance(h, 2, 0.1)
	moved := p.Rebalance(h, bound, rng)
	if moved == 0 {
		t.Fatal("expected rebalancing moves")
	}
	if !p.IsBalanced(h, bound) {
		t.Errorf("still unbalanced after Rebalance: %v vs %+v", p.BlockAreas(h), bound)
	}
}

func TestRebalanceNoOpWhenBalanced(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	h := randomHypergraph(rng, 50, 20)
	p := RandomPartition(h, 2, 0.1, rng)
	bound := Balance(h, 2, 0.1)
	if moved := p.Rebalance(h, bound, rng); moved != 0 {
		t.Errorf("Rebalance moved %d cells on a balanced partition", moved)
	}
}

func TestRebalanceKWay(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	h := randomHypergraph(rng, 200, 80)
	p := NewPartition(200, 4)
	bound := Balance(h, 4, 0.1)
	p.Rebalance(h, bound, rng)
	if !p.IsBalanced(h, bound) {
		t.Errorf("4-way rebalance failed: %v vs %+v", p.BlockAreas(h), bound)
	}
}

func TestCloneIndependent(t *testing.T) {
	p := &Partition{Part: []int32{0, 1, 0}, K: 2}
	q := p.Clone()
	q.Part[0] = 1
	if p.Part[0] != 0 {
		t.Error("Clone shares backing array")
	}
}

func TestPartitionValidateErrors(t *testing.T) {
	if err := (&Partition{Part: []int32{0}, K: 2}).Validate(2); err == nil {
		t.Error("expected length error")
	}
	if err := (&Partition{Part: []int32{0, 5}, K: 2}).Validate(2); err == nil {
		t.Error("expected range error")
	}
	if err := (&Partition{Part: []int32{0, 0}, K: 0}).Validate(2); err == nil {
		t.Error("expected K error")
	}
}
