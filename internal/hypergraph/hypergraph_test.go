package hypergraph

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// tiny builds the 6-cell example hypergraph used throughout the unit
// tests:
//
//	nets: {0,1}, {1,2,3}, {3,4}, {4,5}, {0,5}
func tiny(t *testing.T) *Hypergraph {
	t.Helper()
	h, err := NewBuilder(6).
		AddNet(0, 1).
		AddNet(1, 2, 3).
		AddNet(3, 4).
		AddNet(4, 5).
		AddNet(0, 5).
		Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return h
}

func TestBuilderBasics(t *testing.T) {
	h := tiny(t)
	if h.NumCells() != 6 {
		t.Errorf("NumCells = %d, want 6", h.NumCells())
	}
	if h.NumNets() != 5 {
		t.Errorf("NumNets = %d, want 5", h.NumNets())
	}
	if h.NumPins() != 11 {
		t.Errorf("NumPins = %d, want 11", h.NumPins())
	}
	if h.TotalArea() != 6 {
		t.Errorf("TotalArea = %d, want 6 (unit areas)", h.TotalArea())
	}
	if h.MaxCellArea() != 1 {
		t.Errorf("MaxCellArea = %d, want 1", h.MaxCellArea())
	}
	if h.MinCellArea() != 1 {
		t.Errorf("MinCellArea = %d, want 1", h.MinCellArea())
	}
	if err := h.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestBuilderNetSizeAndDegree(t *testing.T) {
	h := tiny(t)
	wantSizes := []int{2, 3, 2, 2, 2}
	for e, w := range wantSizes {
		if got := h.NetSize(e); got != w {
			t.Errorf("NetSize(%d) = %d, want %d", e, got, w)
		}
	}
	wantDeg := []int{2, 2, 1, 2, 2, 2}
	for v, w := range wantDeg {
		if got := h.Degree(v); got != w {
			t.Errorf("Degree(%d) = %d, want %d", v, got, w)
		}
	}
}

func TestBuilderDropsDegenerateNets(t *testing.T) {
	h, err := NewBuilder(4).
		AddNet(0).          // dropped: single pin
		AddNet(1, 1, 1).    // dropped: dedupes to single pin
		AddNet(2, 3, 3, 2). // kept as {2,3}
		Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if h.NumNets() != 1 {
		t.Fatalf("NumNets = %d, want 1", h.NumNets())
	}
	if h.NetSize(0) != 2 {
		t.Errorf("NetSize(0) = %d, want 2", h.NetSize(0))
	}
}

func TestBuilderErrors(t *testing.T) {
	if _, err := NewBuilder(2).AddNet(0, 5).Build(); err == nil {
		t.Error("expected error for out-of-range pin")
	}
	if _, err := NewBuilder(2).SetArea(0, -1).Build(); err == nil {
		t.Error("expected error for negative area")
	}
	if _, err := NewBuilder(2).SetArea(7, 1).Build(); err == nil {
		t.Error("expected error for out-of-range SetArea")
	}
	if _, err := NewBuilder(2).SetName(9, "x").Build(); err == nil {
		t.Error("expected error for out-of-range SetName")
	}
	if _, err := NewBuilder(-1).Build(); err == nil {
		t.Error("expected error for negative cell count")
	}
}

// messyNets adds m random nets to b and, if ref is not nil, to the
// reference builder ref, cycling through the four AddNet forms, with unsorted and
// duplicate pins, empty and single-pin nets, and weights 1..3.
func messyNets(rng *rand.Rand, b *Builder, ref *refBuilder, n, m int) {
	for e := 0; e < m; e++ {
		pins := make([]int, rng.Intn(7))
		pins32 := make([]int32, len(pins))
		for i := range pins {
			pins[i] = rng.Intn(n)
			pins32[i] = int32(pins[i])
		}
		weight := int32(1)
		switch e % 4 {
		case 0:
			b.AddNet(pins...)
		case 1:
			weight = int32(1 + rng.Intn(3))
			b.AddWeightedNet(weight, pins...)
		case 2:
			b.AddNet32(pins32)
		case 3:
			weight = int32(1 + rng.Intn(3))
			b.AddWeightedNet32(weight, pins32)
		}
		if ref != nil {
			ref.AddWeightedNet32(weight, pins32)
		}
	}
}

// TestBuildMatchesReference holds Build to the frozen slice-per-net
// builder in reference_test.go on programmatic input.
func TestBuildMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		b, ref := NewBuilder(n), refNewBuilder(n)
		for v := 0; v < n; v++ {
			a := int64(rng.Intn(4))
			b.SetArea(v, a)
			ref.SetArea(v, a)
		}
		messyNets(rng, b, ref, n, rng.Intn(120))
		got, want := b.MustBuild(), ref.MustBuild(t)
		if diff := sameHypergraph(got, want); diff != "" {
			t.Fatalf("seed %d: %s differs from the reference", seed, diff)
		}
	}
}

// TestBuildExactSizeArrays: Build's arrays are allocated at their
// final length, so a hypergraph retains no slack from the builder's
// growing buffers.
func TestBuildExactSizeArrays(t *testing.T) {
	b := NewBuilder(60)
	messyNets(rand.New(rand.NewSource(3)), b, nil, 60, 300)
	h := b.MustBuild()
	var text bytes.Buffer
	if err := WriteHGR(&text, h); err != nil {
		t.Fatal(err)
	}
	parsed, err := ReadHGR(&text)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []*Hypergraph{h, parsed} {
		if !h.Weighted() {
			t.Fatal("want a weighted hypergraph, to check netWeight too")
		}
		for _, a := range []struct {
			name     string
			len, cap int
		}{
			{"netStart", len(h.netStart), cap(h.netStart)},
			{"netPins", len(h.netPins), cap(h.netPins)},
			{"cellStart", len(h.cellStart), cap(h.cellStart)},
			{"cellNets", len(h.cellNets), cap(h.cellNets)},
			{"netWeight", len(h.netWeight), cap(h.netWeight)},
			{"area", len(h.area), cap(h.area)},
		} {
			if a.len != a.cap {
				t.Errorf("%s: len %d, cap %d", a.name, a.len, a.cap)
			}
		}
	}
}

// TestBuildTwiceIdentical: Build canonicalizes the builder in place,
// so a second Build, or a Build after more nets, sees the same nets
// as a builder that never built.
func TestBuildTwiceIdentical(t *testing.T) {
	const n = 40
	b, ref := NewBuilder(n), refNewBuilder(n)
	messyNets(rand.New(rand.NewSource(5)), b, ref, n, 150)
	first, second := b.MustBuild(), b.MustBuild()
	if diff := sameHypergraph(first, second); diff != "" {
		t.Fatalf("second Build: %s differs", diff)
	}
	messyNets(rand.New(rand.NewSource(6)), b, ref, n, 150)
	if diff := sameHypergraph(b.MustBuild(), ref.MustBuild(t)); diff != "" {
		t.Fatalf("Build after more nets: %s differs from a fresh build", diff)
	}
	if err := first.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderAreasAndNames(t *testing.T) {
	h, err := NewBuilder(3).
		SetArea(0, 4).SetArea(1, 7).SetArea(2, 2).
		SetName(1, "alu").
		AddNet(0, 1).AddNet(1, 2).
		Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if h.TotalArea() != 13 {
		t.Errorf("TotalArea = %d, want 13", h.TotalArea())
	}
	if h.MaxCellArea() != 7 {
		t.Errorf("MaxCellArea = %d, want 7", h.MaxCellArea())
	}
	if h.MinCellArea() != 2 {
		t.Errorf("MinCellArea = %d, want 2", h.MinCellArea())
	}
	if h.Name(1) != "alu" {
		t.Errorf("Name(1) = %q, want alu", h.Name(1))
	}
	if h.Name(0) != "c0" {
		t.Errorf("Name(0) = %q, want fallback c0", h.Name(0))
	}
	if !h.HasNames() {
		t.Error("HasNames should be true")
	}
}

func TestCrossDirectionConsistency(t *testing.T) {
	h := tiny(t)
	// Every (net, pin) must appear as (cell, net) and vice versa.
	for e := 0; e < h.NumNets(); e++ {
		for _, v := range h.Pins(e) {
			found := false
			for _, f := range h.Nets(int(v)) {
				if int(f) == e {
					found = true
				}
			}
			if !found {
				t.Errorf("net %d has pin %d but cell does not list the net", e, v)
			}
		}
	}
}

// TestValidateRejectsCorruptCellSide corrupts one cellNets entry of
// cell 3, whose nets are {1, 2}, so that the degrees still match the
// pin counts: Validate must reject a net listed twice with another
// left out, a list out of order, and a net that lacks the cell.
func TestValidateRejectsCorruptCellSide(t *testing.T) {
	for _, tc := range []struct {
		name string
		nets [2]int32
	}{
		{"net listed twice, net 2 left out", [2]int32{1, 1}},
		{"nets descending", [2]int32{2, 1}},
		{"net 3 lacks the cell", [2]int32{1, 3}},
	} {
		h := tiny(t)
		if got := h.Nets(3); len(got) != 2 || got[0] != 1 || got[1] != 2 {
			t.Fatalf("cell 3 lists nets %v, want [1 2]", got)
		}
		copy(h.cellNets[h.cellStart[3]:], tc.nets[:])
		if err := h.Validate(); err == nil {
			t.Errorf("%s: Validate accepted cell 3's nets %v", tc.name, tc.nets)
		}
	}
}

func TestMaxDegreeWithNetFilter(t *testing.T) {
	b := NewBuilder(12)
	big := make([]int, 11)
	for i := range big {
		big[i] = i
	}
	b.AddNet(big...) // an 11-pin net
	b.AddNet(0, 1)
	b.AddNet(0, 2)
	h, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if got := h.MaxDegree(0); got != 3 {
		t.Errorf("MaxDegree(0) = %d, want 3", got)
	}
	if got := h.MaxDegree(10); got != 2 {
		t.Errorf("MaxDegree(10) = %d, want 2 (11-pin net ignored)", got)
	}
}

func TestComputeStats(t *testing.T) {
	h := tiny(t)
	s := h.ComputeStats()
	if s.Cells != 6 || s.Nets != 5 || s.Pins != 11 {
		t.Errorf("stats sizes = %+v", s)
	}
	if s.MaxNet != 3 {
		t.Errorf("MaxNet = %d, want 3", s.MaxNet)
	}
	if s.MaxDeg != 2 {
		t.Errorf("MaxDeg = %d, want 2", s.MaxDeg)
	}
	if s.AvgNet != 11.0/5.0 {
		t.Errorf("AvgNet = %v", s.AvgNet)
	}
	if s.MinArea != 1 || s.MaxArea != 1 {
		t.Errorf("area range = [%d,%d], want [1,1]", s.MinArea, s.MaxArea)
	}
}

func TestEmptyHypergraph(t *testing.T) {
	h, err := NewBuilder(0).Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if h.NumCells() != 0 || h.NumNets() != 0 || h.NumPins() != 0 {
		t.Errorf("empty hypergraph has %v", h)
	}
	if h.MinCellArea() != 0 || h.MaxCellArea() != 0 {
		t.Errorf("empty hypergraph cell areas [%d, %d], want [0, 0]", h.MinCellArea(), h.MaxCellArea())
	}
	if err := h.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	_ = h.String()
	_ = h.ComputeStats()
}

// randomHypergraph builds a random valid hypergraph for property
// tests: n cells, m nets with 2..6 pins each.
func randomHypergraph(rng *rand.Rand, n, m int) *Hypergraph {
	b := NewBuilder(n)
	for v := 0; v < n; v++ {
		b.SetArea(v, int64(1+rng.Intn(5)))
	}
	for e := 0; e < m; e++ {
		size := 2 + rng.Intn(5)
		pins := make([]int, size)
		for i := range pins {
			pins[i] = rng.Intn(n)
		}
		b.AddNet(pins...)
	}
	return b.MustBuild()
}

func TestPropertyRandomHypergraphsValidate(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(60)
		m := rng.Intn(120)
		h := randomHypergraph(rng, n, m)
		return h.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPropertyPinConservation(t *testing.T) {
	// Sum of net sizes == sum of cell degrees == NumPins.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := randomHypergraph(rng, 2+rng.Intn(40), rng.Intn(80))
		sumNets, sumDeg := 0, 0
		for e := 0; e < h.NumNets(); e++ {
			sumNets += h.NetSize(e)
		}
		for v := 0; v < h.NumCells(); v++ {
			sumDeg += h.Degree(v)
		}
		return sumNets == h.NumPins() && sumDeg == h.NumPins()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
