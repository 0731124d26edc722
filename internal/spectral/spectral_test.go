package spectral

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"mlpart/internal/hypergraph"
	"mlpart/internal/netmodel"
)

func pathGraph(n int) *hypergraph.Hypergraph {
	b := hypergraph.NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		b.AddNet(i, i+1)
	}
	return b.MustBuild()
}

func TestFiedlerPathIsMonotone(t *testing.T) {
	// The Fiedler vector of a path graph is a cosine — strictly
	// monotone in the vertex order.
	h := pathGraph(12)
	g := netmodel.Build(h, 16)
	rng := rand.New(rand.NewSource(1))
	vec, lambda2, _ := Fiedler(g, 5000, 1e-10, rng)
	inc, dec := true, true
	for i := 0; i+1 < len(vec); i++ {
		if vec[i+1] < vec[i] {
			inc = false
		}
		if vec[i+1] > vec[i] {
			dec = false
		}
	}
	if !inc && !dec {
		t.Errorf("Fiedler vector of a path is not monotone: %v", vec)
	}
	// λ2 of a path of n vertices is 2(1 − cos(π/n)) = 4 sin²(π/2n).
	want := 4 * math.Pow(math.Sin(math.Pi/24), 2)
	if math.Abs(lambda2-want) > 1e-3 {
		t.Errorf("λ2 = %v, want %v", lambda2, want)
	}
}

func TestFiedlerSeparatesTwoCliques(t *testing.T) {
	// Two K6 cliques joined by one edge: the Fiedler vector signs
	// separate the cliques.
	b := hypergraph.NewBuilder(12)
	for g := 0; g < 2; g++ {
		base := g * 6
		for i := 0; i < 6; i++ {
			for j := i + 1; j < 6; j++ {
				b.AddNet(base+i, base+j)
			}
		}
	}
	b.AddNet(0, 6)
	h := b.MustBuild()
	g := netmodel.Build(h, 16)
	vec, _, _ := Fiedler(g, 5000, 1e-10, rand.New(rand.NewSource(2)))
	for i := 1; i < 6; i++ {
		if math.Signbit(vec[i]) != math.Signbit(vec[0]) {
			t.Errorf("cell %d not on cell 0's side", i)
		}
		if math.Signbit(vec[6+i]) != math.Signbit(vec[6]) {
			t.Errorf("cell %d not on cell 6's side", 6+i)
		}
	}
	if math.Signbit(vec[0]) == math.Signbit(vec[6]) {
		t.Error("the two cliques were not separated")
	}
}

func TestFiedlerOrthogonalToOnes(t *testing.T) {
	h := pathGraph(20)
	g := netmodel.Build(h, 16)
	vec, _, _ := Fiedler(g, 3000, 1e-9, rand.New(rand.NewSource(3)))
	var sum, nrm float64
	for _, v := range vec {
		sum += v
		nrm += v * v
	}
	if math.Abs(sum) > 1e-6 {
		t.Errorf("Σ fiedler = %v, want 0", sum)
	}
	if math.Abs(nrm-1) > 1e-6 {
		t.Errorf("‖fiedler‖² = %v, want 1", nrm)
	}
}

func TestBipartitionTwoCliquesOptimal(t *testing.T) {
	b := hypergraph.NewBuilder(16)
	for g := 0; g < 2; g++ {
		base := g * 8
		for i := 0; i < 8; i++ {
			for j := i + 1; j < 8; j++ {
				b.AddNet(base+i, base+j)
			}
		}
	}
	b.AddNet(3, 11)
	h := b.MustBuild()
	p, res, err := Bipartition(h, Config{}, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Cut != 1 {
		t.Errorf("spectral cut = %d, want 1", res.Cut)
	}
	if res.Cut != p.Cut(h) {
		t.Error("cut mismatch")
	}
	areas := p.BlockAreas(h)
	if areas[0] != 8 || areas[1] != 8 {
		t.Errorf("areas = %v, want [8 8]", areas)
	}
}

func TestBipartitionWithFMRefinement(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	b := hypergraph.NewBuilder(100)
	for e := 0; e < 250; e++ {
		b.AddNet(rng.Intn(100), rng.Intn(100))
	}
	h := b.MustBuild()
	_, plain, err := Bipartition(h, Config{}, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	_, refined, err := Bipartition(h, Config{RefineFM: true}, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	if refined.Cut > plain.Cut {
		t.Errorf("EIG+FM (%d) worse than EIG (%d)", refined.Cut, plain.Cut)
	}
}

func TestBipartitionEmptyAndErrors(t *testing.T) {
	h := hypergraph.NewBuilder(0).MustBuild()
	if _, res, err := Bipartition(h, Config{}, rand.New(rand.NewSource(0))); err != nil || res.Cut != 0 {
		t.Errorf("empty: %v %v", res, err)
	}
	h2 := pathGraph(4)
	for _, bad := range []Config{{CliqueLimit: 1}, {MaxIter: -1}, {Tol: 2}} {
		if _, _, err := Bipartition(h2, bad, rand.New(rand.NewSource(0))); err == nil {
			t.Errorf("bad config accepted: %+v", bad)
		}
	}
}

func TestSortByValueStable(t *testing.T) {
	vec := []float64{0.5, -0.1, 0.5, 0.3, -0.1}
	order := []int32{0, 1, 2, 3, 4}
	netmodel.SortByKey(order, vec)
	// Sorted by value; ties keep original order (1 before 4, 0 before 2).
	want := []int32{1, 4, 3, 0, 2}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	// Cross-check against the standard library.
	vals := make([]float64, len(order))
	for i, v := range order {
		vals[i] = vec[v]
	}
	if !sort.Float64sAreSorted(vals) {
		t.Error("not sorted")
	}
}

func TestSplitAtAreaMedianWeighted(t *testing.T) {
	b := hypergraph.NewBuilder(4)
	b.SetArea(0, 10).SetArea(1, 1).SetArea(2, 1).SetArea(3, 10)
	b.AddNet(0, 1).AddNet(2, 3)
	h := b.MustBuild()
	vec := []float64{-1, -0.5, 0.5, 1}
	side := netmodel.SplitAtAreaMedian(h, vec)
	// Cumulative: cell0 (10) < 11 → block 0; cell1 (11) → block 1
	// onward? half = 11. Cell0 cum 0 <11 → 0; cell1 cum 10 < 11 → 0;
	// cell2 cum 11 ≥ 11 → 1; cell3 → 1.
	want := []int32{0, 0, 1, 1}
	for v := range want {
		if side[v] != want[v] {
			t.Errorf("cell %d in block %d, want %d", v, side[v], want[v])
		}
	}
}

func TestLanczosPathEigenvalue(t *testing.T) {
	h := pathGraph(12)
	g := netmodel.Build(h, 16)
	vec, lambda2, dim := FiedlerLanczos(g, rand.New(rand.NewSource(1)))
	want := 4 * math.Pow(math.Sin(math.Pi/24), 2)
	if math.Abs(lambda2-want) > 1e-6 {
		t.Errorf("Lanczos λ2 = %v, want %v (dim %d)", lambda2, want, dim)
	}
	inc, dec := true, true
	for i := 0; i+1 < len(vec); i++ {
		if vec[i+1] < vec[i] {
			inc = false
		}
		if vec[i+1] > vec[i] {
			dec = false
		}
	}
	if !inc && !dec {
		t.Errorf("Lanczos Fiedler vector not monotone on a path: %v", vec)
	}
}

func TestLanczosMatchesPowerIteration(t *testing.T) {
	// Both eigensolvers must agree on λ2 for a random graph.
	rng := rand.New(rand.NewSource(2))
	b := hypergraph.NewBuilder(60)
	for e := 0; e < 150; e++ {
		b.AddNet(rng.Intn(60), rng.Intn(60))
	}
	g := netmodel.Build(b.MustBuild(), 16)
	_, l1, _ := Fiedler(g, 20000, 1e-12, rand.New(rand.NewSource(3)))
	_, l2, _ := FiedlerLanczos(g, rand.New(rand.NewSource(4)))
	if math.Abs(l1-l2) > 1e-4*(1+math.Abs(l1)) {
		t.Errorf("power λ2 %v vs Lanczos λ2 %v", l1, l2)
	}
}

func TestLanczosSeparatesTwoCliques(t *testing.T) {
	b := hypergraph.NewBuilder(12)
	for g := 0; g < 2; g++ {
		base := g * 6
		for i := 0; i < 6; i++ {
			for j := i + 1; j < 6; j++ {
				b.AddNet(base+i, base+j)
			}
		}
	}
	b.AddNet(0, 6)
	g := netmodel.Build(b.MustBuild(), 16)
	vec, _, _ := FiedlerLanczos(g, rand.New(rand.NewSource(5)))
	if math.Signbit(vec[1]) != math.Signbit(vec[0]) || math.Signbit(vec[7]) == math.Signbit(vec[0]) {
		t.Errorf("Lanczos did not separate the cliques: %v", vec)
	}
}

func TestBipartitionWithLanczos(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	b := hypergraph.NewBuilder(80)
	for e := 0; e < 200; e++ {
		b.AddNet(rng.Intn(80), rng.Intn(80))
	}
	h := b.MustBuild()
	p, res, err := Bipartition(h, Config{Lanczos: true}, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Cut != p.Cut(h) {
		t.Error("cut mismatch")
	}
	if p.BlockAreas(h)[0] != 40 {
		t.Errorf("areas = %v", p.BlockAreas(h))
	}
}

func TestLanczosEmptyGraph(t *testing.T) {
	h := hypergraph.NewBuilder(0).MustBuild()
	g := netmodel.Build(h, 16)
	vec, _, _ := FiedlerLanczos(g, rand.New(rand.NewSource(0)))
	if vec != nil {
		t.Error("empty graph should give nil vector")
	}
}
