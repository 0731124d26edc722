package hypergraph

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWeightedNetBasics(t *testing.T) {
	h := NewBuilder(4).
		AddWeightedNet(5, 0, 1).
		AddNet(1, 2).
		MustBuild()
	if !h.Weighted() {
		t.Fatal("hypergraph should be weighted")
	}
	if h.NetWeight(0) != 5 || h.NetWeight(1) != 1 {
		t.Errorf("weights = %d,%d", h.NetWeight(0), h.NetWeight(1))
	}
	if h.TotalNetWeight() != 6 {
		t.Errorf("total weight = %d", h.TotalNetWeight())
	}
	if err := h.Validate(); err != nil {
		t.Error(err)
	}
	if h.MaxWeightedDegree(0) != 6 { // cell 1: nets 5+1
		t.Errorf("MaxWeightedDegree = %d", h.MaxWeightedDegree(0))
	}
}

func TestWeightedNetErrors(t *testing.T) {
	if _, err := NewBuilder(2).AddWeightedNet(0, 0, 1).Build(); err == nil {
		t.Error("weight 0 accepted")
	}
	if _, err := NewBuilder(2).AddWeightedNet32(-1, []int32{0, 1}).Build(); err == nil {
		t.Error("negative weight accepted")
	}
}

func TestWeightedCut(t *testing.T) {
	h := NewBuilder(4).
		AddWeightedNet(5, 0, 1).
		AddWeightedNet(2, 2, 3).
		MustBuild()
	p := &Partition{Part: []int32{0, 1, 0, 0}, K: 2}
	if got := p.Cut(h); got != 1 {
		t.Errorf("Cut = %d, want 1", got)
	}
	if got := p.WeightedCut(h); got != 5 {
		t.Errorf("WeightedCut = %d, want 5", got)
	}
	q := &Partition{Part: []int32{0, 1, 0, 1}, K: 2}
	if got := q.WeightedCut(h); got != 7 {
		t.Errorf("WeightedCut = %d, want 7", got)
	}
	if got := q.WeightedSumOfDegrees(h); got != 7 {
		t.Errorf("WeightedSumOfDegrees = %d, want 7 (K=2)", got)
	}
}

func TestInduceMergedCutEquivalence(t *testing.T) {
	// The central invariant of parallel-net merging: for any
	// clustering and any partition of the coarse cells, the weighted
	// cut under the merged representation equals the (weighted) cut
	// under the parallel representation.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(40)
		h := randomHypergraph(rng, n, 10+rng.Intn(80))
		c := randomClustering(rng, n)
		plain, err := InduceWSPar(h, c, nil, nil)
		if err != nil {
			return false
		}
		merged, err := MergeParallelNets(plain)
		if err != nil {
			return false
		}
		if merged.NumNets() > plain.NumNets() {
			return false
		}
		if merged.TotalNetWeight() != int64(plain.NumNets()) {
			return false // weights must account for every parallel net
		}
		for trial := 0; trial < 5; trial++ {
			p := RandomPartition(plain, 2, 0.5, rng)
			if p.WeightedCut(merged) != p.WeightedCut(plain) {
				return false
			}
			q := RandomPartition(plain, 4, 0.8, rng)
			if q.WeightedSumOfDegrees(merged) != q.WeightedSumOfDegrees(plain) {
				return false
			}
		}
		return merged.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestWeightedHGRRoundTrip(t *testing.T) {
	h := NewBuilder(3).
		SetArea(0, 4).
		AddWeightedNet(3, 0, 1).
		AddWeightedNet(7, 1, 2).
		MustBuild()
	var buf bytes.Buffer
	if err := WriteHGR(&buf, h); err != nil {
		t.Fatal(err)
	}
	got, err := ReadHGR(&buf)
	if err != nil {
		t.Fatalf("%v\n%s", err, buf.String())
	}
	if got.NetWeight(0) != 3 || got.NetWeight(1) != 7 {
		t.Errorf("weights lost: %d, %d", got.NetWeight(0), got.NetWeight(1))
	}
	if got.Area(0) != 4 {
		t.Error("area lost")
	}
}

func TestWeightedHGRNetWeightsOnly(t *testing.T) {
	// fmt "1": net weights, unit areas.
	h := NewBuilder(3).AddWeightedNet(9, 0, 1, 2).MustBuild()
	var buf bytes.Buffer
	if err := WriteHGR(&buf, h); err != nil {
		t.Fatal(err)
	}
	got, err := ReadHGR(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NetWeight(0) != 9 || got.Area(0) != 1 {
		t.Errorf("fmt 1 round trip broken: w=%d a=%d", got.NetWeight(0), got.Area(0))
	}
}
