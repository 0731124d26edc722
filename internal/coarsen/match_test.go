package coarsen

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mlpart/internal/hypergraph"
	"mlpart/internal/telemetry"
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

func TestConnDefinition(t *testing.T) {
	// Cells 0,1 share a 2-pin net and a 3-pin net (with 2).
	h := hypergraph.NewBuilder(3).
		AddNet(0, 1).
		AddNet(0, 1, 2).
		MustBuild()
	// conn(0,1) = (1/(2-1) + 1/(3-1)) / (1+1) = 1.5/2 = 0.75
	if got := Conn(h, 0, 1, 10); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("Conn(0,1) = %v, want 0.75", got)
	}
	// conn(0,2) = (1/2) / 2 = 0.25
	if got := Conn(h, 0, 2, 10); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("Conn(0,2) = %v, want 0.25", got)
	}
	// No shared net → 0.
	h2 := hypergraph.NewBuilder(4).AddNet(0, 1).AddNet(2, 3).MustBuild()
	if got := Conn(h2, 0, 2, 10); got != 0 {
		t.Errorf("Conn(0,2) = %v, want 0", got)
	}
}

func TestConnIgnoresLargeNets(t *testing.T) {
	b := hypergraph.NewBuilder(12)
	pins := make([]int, 12)
	for i := range pins {
		pins[i] = i
	}
	b.AddNet(pins...) // 12-pin net
	b.AddNet(0, 1)
	h := b.MustBuild()
	// With the default cutoff of 10, only the 2-pin net counts:
	// conn(0,1) = 1/2.
	if got := Conn(h, 0, 1, 10); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("Conn = %v, want 0.5", got)
	}
	// conn(0,2) shares only the big net → 0.
	if got := Conn(h, 0, 2, 10); got != 0 {
		t.Errorf("Conn = %v, want 0", got)
	}
}

func TestConnAreaPreference(t *testing.T) {
	// Identical net structure, different areas: the smaller pair has
	// higher connectivity.
	h := hypergraph.NewBuilder(4).
		SetArea(0, 1).SetArea(1, 1).SetArea(2, 10).SetArea(3, 10).
		AddNet(0, 1).AddNet(2, 3).
		MustBuild()
	if Conn(h, 0, 1, 10) <= Conn(h, 2, 3, 10) {
		t.Error("smaller-area pair should have higher conn")
	}
}

func TestMatchPairsStronglyConnected(t *testing.T) {
	// Two tight pairs joined loosely: {0,1} share 3 nets, {2,3} share
	// 3 nets, one weak net joins 1-2. Match with R=1 must pair (0,1)
	// and (2,3).
	b := hypergraph.NewBuilder(4)
	for i := 0; i < 3; i++ {
		b.AddNet(0, 1)
		b.AddNet(2, 3)
	}
	b.AddNet(1, 2)
	h := b.MustBuild()
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c, err := Match(h, Config{Ratio: 1}, rng)
		if err != nil {
			t.Fatal(err)
		}
		if c.NumClusters != 2 {
			t.Fatalf("seed %d: %d clusters, want 2", seed, c.NumClusters)
		}
		if c.CellToCluster[0] != c.CellToCluster[1] || c.CellToCluster[2] != c.CellToCluster[3] {
			t.Errorf("seed %d: wrong pairing %v", seed, c.CellToCluster)
		}
	}
}

func TestMatchRatioControlsCoarseningSpeed(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	h := randomH(rng, 400, 900, 4)
	// R = 1: roughly n/2 clusters. R = 0.5: roughly 3n/4 clusters.
	c1, err := Match(h, Config{Ratio: 1.0}, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	c05, err := Match(h, Config{Ratio: 0.5}, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	if c1.NumClusters >= c05.NumClusters {
		t.Errorf("R=1 gave %d clusters, R=0.5 gave %d; slower coarsening must keep more",
			c1.NumClusters, c05.NumClusters)
	}
	// R=0.5 matches ~half the cells: clusters ≈ n − matched/2 = 3n/4.
	want := 3 * 400 / 4
	if diff := c05.NumClusters - want; diff < -40 || diff > 40 {
		t.Errorf("R=0.5 gave %d clusters, want ≈ %d", c05.NumClusters, want)
	}
}

func TestMatchValidClustering(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(200)
		h := randomH(rng, n, n*2, 5)
		for _, ratio := range []float64{0.33, 0.5, 1.0} {
			c, err := Match(h, Config{Ratio: ratio}, rng)
			if err != nil {
				return false
			}
			if c.Validate(n) != nil {
				return false
			}
			// Cluster sizes are 1 or 2 (matching-based clustering).
			for _, s := range c.ClusterSizes() {
				if s < 1 || s > 2 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestMatchReducesAtMostHalf(t *testing.T) {
	// Even with R = 1, clusters ≥ ceil(n/2).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(150)
		h := randomH(rng, n, n, 4)
		c, err := Match(h, Config{Ratio: 1}, rng)
		if err != nil {
			return false
		}
		return c.NumClusters >= (n+1)/2 && c.NumClusters <= n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestMatchIsolatedCellsBecomeSingletons(t *testing.T) {
	// Cells 3,4 have no nets at all.
	h := hypergraph.NewBuilder(5).AddNet(0, 1).AddNet(1, 2).MustBuild()
	rng := rand.New(rand.NewSource(3))
	c, err := Match(h, Config{Ratio: 1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(5); err != nil {
		t.Fatal(err)
	}
	sizes := c.ClusterSizes()
	if sizes[c.CellToCluster[3]] != 1 || sizes[c.CellToCluster[4]] != 1 {
		t.Error("isolated cells must be singletons")
	}
}

func TestMatchEmptyHypergraph(t *testing.T) {
	h := hypergraph.NewBuilder(0).MustBuild()
	c, err := Match(h, Config{}, rand.New(rand.NewSource(0)))
	if err != nil {
		t.Fatal(err)
	}
	if c.NumClusters != 0 {
		t.Errorf("NumClusters = %d, want 0", c.NumClusters)
	}
}

func TestCoarsenInduces(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	h := randomH(rng, 100, 200, 4)
	c, err := Match(h, Config{Ratio: 1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	coarse, err := hypergraph.InduceInto(h, c, nil, &hypergraph.Hypergraph{})
	if err != nil {
		t.Fatal(err)
	}
	if coarse.NumCells() != c.NumClusters {
		t.Errorf("coarse cells %d != clusters %d", coarse.NumCells(), c.NumClusters)
	}
	if coarse.TotalArea() != h.TotalArea() {
		t.Error("area not conserved")
	}
	if coarse.NumCells() >= h.NumCells() {
		t.Error("coarsening did not shrink the instance")
	}
}

func TestConfigNormalize(t *testing.T) {
	c, err := Config{}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if c.Ratio != 1.0 || c.MaxNetSize != 10 || c.StallFraction != DefaultStallFraction {
		t.Errorf("defaults = %+v", c)
	}
	for _, bad := range []Config{{Ratio: -0.2}, {Ratio: 1.5}, {MaxNetSize: 1},
		{StallFraction: math.NaN()}, {StallFraction: -0.5}, {StallFraction: -math.SmallestNonzeroFloat64}, {StallFraction: 1.01}, {StallFraction: math.Inf(1)}} {
		if _, err := bad.Normalize(); err == nil {
			t.Errorf("config %+v should fail", bad)
		}
	}
}

func TestMatchDeterministicPerSeed(t *testing.T) {
	h := randomH(rand.New(rand.NewSource(5)), 120, 240, 4)
	a, err := Match(h, Config{Ratio: 0.5}, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Match(h, Config{Ratio: 0.5}, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	for v := range a.CellToCluster {
		if a.CellToCluster[v] != b.CellToCluster[v] {
			t.Fatal("Match not deterministic for a fixed seed")
		}
	}
}

func TestMatchExcludeNeverMatched(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	h := randomH(rng, 60, 150, 4)
	exclude := make([]bool, 60)
	for v := 0; v < 60; v += 5 {
		exclude[v] = true
	}
	c, err := Match(h, Config{Ratio: 1, Exclude: exclude}, rng)
	if err != nil {
		t.Fatal(err)
	}
	sizes := c.ClusterSizes()
	for v := 0; v < 60; v += 5 {
		if sizes[c.CellToCluster[v]] != 1 {
			t.Errorf("excluded cell %d is in a cluster of size %d", v, sizes[c.CellToCluster[v]])
		}
	}
}

func TestMatchExcludeLengthMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	h := randomH(rng, 10, 20, 3)
	if _, err := Match(h, Config{Exclude: make([]bool, 3)}, rng); err == nil {
		t.Error("expected error for Exclude length mismatch")
	}
}

func TestMatchSameBlockOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	h := randomH(rng, 60, 150, 4)
	p := hypergraph.RandomPartition(h, 2, 0.1, rng)
	c, err := Match(h, Config{Ratio: 1, SameBlockOnly: p}, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Every cluster must be block-pure.
	blockOf := make([]int32, c.NumClusters)
	for i := range blockOf {
		blockOf[i] = -1
	}
	for v, k := range c.CellToCluster {
		if blockOf[k] == -1 {
			blockOf[k] = p.Part[v]
		} else if blockOf[k] != p.Part[v] {
			t.Fatalf("cluster %d mixes blocks", k)
		}
	}
}

func TestMatchSameBlockOnlyLengthMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	h := randomH(rng, 10, 20, 3)
	bad := hypergraph.NewPartition(3, 2)
	if _, err := Match(h, Config{SameBlockOnly: bad}, rng); err == nil {
		t.Error("length mismatch accepted")
	}
}

// TestConnDegenerateNets is the regression test for the 1/(|e|−1)
// division: single-pin nets (reachable only through the raw test
// builder — Build drops them) must be skipped, not divide by zero and
// poison the score with +Inf/NaN.
func TestConnDegenerateNets(t *testing.T) {
	b := hypergraph.NewBuilder(4).
		AddNet(0).       // degenerate single-pin net on 0
		AddNet(1, 1).    // duplicate-only net: two pins, one distinct cell
		AddNet(0, 1).    // the only real connection between 0 and 1
		AddNet(0, 1, 1). // duplicate pin inside a 3-pin net
		AddNet(2, 3)
	h, err := b.BuildRawForTest()
	if err != nil {
		t.Fatal(err)
	}
	got := Conn(h, 0, 1, 10)
	if math.IsInf(got, 0) || math.IsNaN(got) {
		t.Fatalf("Conn(0,1) = %v: degenerate net poisoned the score", got)
	}
	// Net (0,1) contributes 1/(2−1); net (0,1,1) has raw size 3 and
	// contributes 1/(3−1); the single-pin net contributes nothing.
	want := (1.0 + 0.5) / 2.0
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("Conn(0,1) = %v, want %v", got, want)
	}
	// A cell whose only net is degenerate connects to nothing.
	if got := Conn(h, 1, 2, 10); got != 0 {
		t.Errorf("Conn(1,2) = %v, want 0", got)
	}
}

// TestMatchDegenerateNets runs the full matching sweep over a raw
// hypergraph with single-pin and duplicate-pin nets: the clustering
// must stay well-formed and the genuinely connected pair must still
// match (a poisoned +Inf score on the degenerate net would have
// hijacked the choice before the fix).
func TestMatchDegenerateNets(t *testing.T) {
	b := hypergraph.NewBuilder(4).
		AddNet(0).    // single-pin
		AddNet(2, 2). // duplicate-only
		AddNet(0, 1).
		AddNet(2, 3)
	h, err := b.BuildRawForTest()
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c, err := Match(h, Config{Ratio: 1}, rng)
		if err != nil {
			t.Fatal(err)
		}
		if c.NumClusters != 2 {
			t.Fatalf("seed %d: %d clusters, want 2 ({0,1} and {2,3})", seed, c.NumClusters)
		}
		for v, k := range c.CellToCluster {
			if k < 0 || int(k) >= c.NumClusters {
				t.Fatalf("seed %d: cell %d assigned out-of-range cluster %d", seed, v, k)
			}
		}
		if c.CellToCluster[0] != c.CellToCluster[1] || c.CellToCluster[2] != c.CellToCluster[3] {
			t.Fatalf("seed %d: wrong pairing %v", seed, c.CellToCluster)
		}
	}
}

// TestMatchTieBreakLowestIndex pins the deterministic tie-break
// between equal-connectivity match candidates: the lowest cell index
// must win, independent of the pin/net traversal order that feeds the
// neighbor list.
func TestMatchTieBreakLowestIndex(t *testing.T) {
	// Cell 0 is connected to 2 and to 1 by identical 2-pin nets, with
	// the higher-index neighbor's net added FIRST so that plain
	// first-seen-wins selection would pick 2. Cells 1 and 2 share no
	// net, so the only matching decision with a tie is 0's.
	h := hypergraph.NewBuilder(3).
		AddNet(0, 2).
		AddNet(0, 1).
		MustBuild()
	// Find a seed whose permutation visits cell 0 first, so 0 chooses
	// among both unmatched neighbors.
	seed := int64(-1)
	for s := int64(0); s < 64; s++ {
		if rand.New(rand.NewSource(s)).Perm(3)[0] == 0 {
			seed = s
			break
		}
	}
	if seed < 0 {
		t.Fatal("no seed with perm[0] == 0 in range")
	}
	rng := rand.New(rand.NewSource(seed))
	c, err := Match(h, Config{Ratio: 1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if c.CellToCluster[0] != c.CellToCluster[1] {
		t.Errorf("tie broke to cell 2: clustering %v, want {0,1} paired", c.CellToCluster)
	}
	if c.CellToCluster[0] == c.CellToCluster[2] {
		t.Errorf("cell 2 joined the pair: clustering %v", c.CellToCluster)
	}
}

// TestMatchTelemetryCounts checks the pairs/singletons derivation
// recorded through an armed collector.
func TestMatchTelemetryCounts(t *testing.T) {
	h := hypergraph.NewBuilder(5).
		AddNet(0, 1).
		AddNet(2, 3).
		MustBuild() // cell 4 is isolated
	tel := telemetry.New()
	rng := rand.New(rand.NewSource(3))
	c, err := Match(h, Config{Ratio: 1, Telemetry: tel}, rng)
	if err != nil {
		t.Fatal(err)
	}
	wantPairs := 5 - c.NumClusters
	s := tel.TakeStart(0, "ok", 0, 0)
	if len(s.Coarsening) != 0 {
		t.Fatalf("Match alone must not append levels: %+v", s.Coarsening)
	}
	// The pending counts fold into the next RecordLevel.
	tel2 := telemetry.New()
	if _, err := Match(h, Config{Ratio: 1, Telemetry: tel2}, rand.New(rand.NewSource(3))); err != nil {
		t.Fatal(err)
	}
	tel2.RecordLevel(c.NumClusters, 0, 0, 1)
	s2 := tel2.TakeStart(0, "ok", 0, 0)
	if len(s2.Coarsening) != 1 {
		t.Fatalf("want one level entry, got %+v", s2.Coarsening)
	}
	if s2.Coarsening[0].MatchedPairs != wantPairs || s2.Coarsening[0].Singletons != c.NumClusters-wantPairs {
		t.Errorf("level entry %+v, want pairs=%d singletons=%d",
			s2.Coarsening[0], wantPairs, c.NumClusters-wantPairs)
	}
}

// sparseH has n cells and one 2-pin net per entry of pairs: a level
// where the sweep runs out of modules long before it reaches R = 1.
func sparseH(n int, pairs ...[2]int) *hypergraph.Hypergraph {
	b := hypergraph.NewBuilder(n)
	for _, p := range pairs {
		b.AddNet(p[0], p[1])
	}
	return b.MustBuild()
}

// TestMatchStallDropsLevel: one pair among 100 cells keeps 99% of the
// cells, so the default rule drops the level, while f = 1 keeps the
// Fig. 3 clustering. Both sweeps consume the same RNG draws: the
// stream after a stalled Match is the stream after the full one.
func TestMatchStallDropsLevel(t *testing.T) {
	h := sparseH(100, [2]int{3, 7})
	for _, tc := range []struct {
		f        float64
		out      Outcome
		clusters int
	}{{0, Stalled, 100}, {0.9, Stalled, 100}, {0.99, Swept, 99}, {1, Swept, 99}} {
		rng := rand.New(rand.NewSource(11))
		var c hypergraph.Clustering
		out, err := MatchInto(h, Config{StallFraction: tc.f}, rng, &c)
		if err != nil {
			t.Fatal(err)
		}
		if out != tc.out || c.NumClusters != tc.clusters {
			t.Errorf("f = %v: outcome %d with %d clusters, want %d with %d", tc.f, out, c.NumClusters, tc.out, tc.clusters)
		}
		if err := c.Validate(h.NumCells()); err != nil {
			t.Errorf("f = %v: %v", tc.f, err)
		}
		full := rand.New(rand.NewSource(11))
		if _, err := Match(h, Config{StallFraction: 1}, full); err != nil {
			t.Fatal(err)
		}
		if got, want := rng.Int63(), full.Int63(); got != want {
			t.Errorf("f = %v: the next RNG draw is %d after Match, %d after the full sweep", tc.f, got, want)
		}
	}
}

// TestMatchStallNeedsSweepToRunOut: at R = 0.05 every level keeps
// 97.5% of its cells, but the sweep stops because it reached R, so
// the level stands.
func TestMatchStallNeedsSweepToRunOut(t *testing.T) {
	h := randomH(rand.New(rand.NewSource(12)), 400, 600, 4)
	var c hypergraph.Clustering
	out, err := MatchInto(h, Config{Ratio: 0.05}, rand.New(rand.NewSource(13)), &c)
	if err != nil {
		t.Fatal(err)
	}
	if out != Swept || c.NumClusters != 390 {
		t.Errorf("R = 0.05: outcome %d with %d clusters, want %d with 390", out, c.NumClusters, Swept)
	}
}

// TestMatchStallCountsMovableCellsOnly: 92 excluded pads and 8
// movable cells that pair up completely. The clustering keeps 96 of
// 100 cells, but only half of the movable ones, so it is no stall.
func TestMatchStallCountsMovableCellsOnly(t *testing.T) {
	h := sparseH(100, [2]int{0, 1}, [2]int{2, 3}, [2]int{4, 5}, [2]int{6, 7}, [2]int{7, 50})
	exclude := make([]bool, 100)
	for v := 8; v < 100; v++ {
		exclude[v] = true
	}
	var c hypergraph.Clustering
	out, err := MatchInto(h, Config{Exclude: exclude}, rand.New(rand.NewSource(14)), &c)
	if err != nil {
		t.Fatal(err)
	}
	if out != Swept || c.NumClusters != 96 {
		t.Errorf("outcome %d with %d clusters, want %d with 96", out, c.NumClusters, Swept)
	}
}

// TestMatchStopIsNotStall: a Stop hook that ends the sweep after 256
// modules leaves the few pairs formed so far. The clustering keeps
// more than f of the cells without reaching R, but a stopped sweep is
// no stall, so the pairs stand.
func TestMatchStopIsNotStall(t *testing.T) {
	var pairs [][2]int
	for v := 0; v < 40; v += 2 {
		pairs = append(pairs, [2]int{v, v + 1})
	}
	h := sparseH(1000, pairs...)
	polls := 0
	stop := func() bool { polls++; return polls > 1 }
	var c hypergraph.Clustering
	out, err := MatchInto(h, Config{Stop: stop}, rand.New(rand.NewSource(15)), &c)
	if err != nil {
		t.Fatal(err)
	}
	if out != Stopped || c.NumClusters == 1000 || c.NumClusters <= 950 {
		t.Errorf("outcome %d with %d clusters, want %d with a few pairs", out, c.NumClusters, Stopped)
	}
}
