package fm

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mlpart/internal/gainbucket"
	"mlpart/internal/hypergraph"
)

// twoClusters builds a hypergraph with two densely connected groups
// of k cells joined by a single bridging net; min cut = 1.
func twoClusters(t *testing.T, k int) *hypergraph.Hypergraph {
	t.Helper()
	b := hypergraph.NewBuilder(2 * k)
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			b.AddNet(i, j)
			b.AddNet(k+i, k+j)
		}
	}
	b.AddNet(0, k) // bridge
	h, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return h
}

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

func TestFMFindsOptimalCutOnTwoClusters(t *testing.T) {
	h := twoClusters(t, 8)
	found := false
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p, res, err := Partition(h, nil, Config{}, rng)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cut != p.Cut(h) {
			t.Fatalf("result cut %d != measured %d", res.Cut, p.Cut(h))
		}
		if res.Cut == 1 {
			found = true
			break
		}
	}
	if !found {
		t.Error("FM never found the optimal cut of 1 in 10 runs on a trivial instance")
	}
}

func TestCLIPFindsOptimalCutOnTwoClusters(t *testing.T) {
	h := twoClusters(t, 8)
	found := false
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		_, res, err := Partition(h, nil, Config{Engine: EngineCLIP}, rng)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cut == 1 {
			found = true
			break
		}
	}
	if !found {
		t.Error("CLIP never found the optimal cut of 1 in 10 runs")
	}
}

func TestRefineNeverWorsens(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := randomH(rng, 10+rng.Intn(60), 20+rng.Intn(100), 5)
		for _, eng := range []Engine{EngineFM, EngineCLIP} {
			p := hypergraph.RandomPartition(h, 2, 0.1, rng)
			before := p.Cut(h)
			res, err := Refine(h, p, Config{Engine: eng}, rng)
			if err != nil {
				return false
			}
			if res.Cut > before || res.InitialCut != before {
				return false
			}
			if res.Cut != p.Cut(h) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestRefineKeepsBalance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := randomH(rng, 20+rng.Intn(80), 30+rng.Intn(100), 6)
		bound := hypergraph.Balance(h, 2, 0.1)
		p := hypergraph.RandomPartition(h, 2, 0.1, rng)
		if _, err := Refine(h, p, Config{}, rng); err != nil {
			return false
		}
		return p.IsBalanced(h, bound)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPartitionRebalancesUnbalancedInitial(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	h := randomH(rng, 80, 100, 4)
	initial := hypergraph.NewPartition(80, 2) // all on side 0
	p, _, err := Partition(h, initial, Config{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	bound := hypergraph.Balance(h, 2, 0.1)
	if !p.IsBalanced(h, bound) {
		t.Errorf("result unbalanced: %v vs %+v", p.BlockAreas(h), bound)
	}
	// The original must be untouched.
	for _, k := range initial.Part {
		if k != 0 {
			t.Fatal("Partition modified the initial solution")
		}
	}
}

func TestAllBucketOrders(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	h := randomH(rng, 60, 120, 4)
	for _, ord := range []gainbucket.Order{gainbucket.LIFO, gainbucket.FIFO, gainbucket.Random} {
		p, res, err := Partition(h, nil, Config{Order: ord}, rng)
		if err != nil {
			t.Fatalf("%v: %v", ord, err)
		}
		if res.Cut != p.Cut(h) {
			t.Errorf("%v: cut mismatch", ord)
		}
		if res.Passes < 1 {
			t.Errorf("%v: no passes run", ord)
		}
	}
}

func TestLargeNetsIgnoredButCounted(t *testing.T) {
	// One giant net over all cells plus small nets. With MaxNetSize
	// below the giant net's size, refinement ignores it, but the
	// reported cut still counts it.
	rng := rand.New(rand.NewSource(2))
	b := hypergraph.NewBuilder(20)
	all := make([]int, 20)
	for i := range all {
		all[i] = i
	}
	b.AddNet(all...)
	for i := 0; i < 19; i++ {
		b.AddNet(i, i+1)
	}
	h := b.MustBuild()
	p, res, err := Partition(h, nil, Config{MaxNetSize: 10}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cut != p.Cut(h) {
		t.Fatalf("cut %d != measured %d", res.Cut, p.Cut(h))
	}
	if res.Cut < 1 {
		t.Error("giant net spans both sides; cut must count it")
	}
}

func TestNoNetsIsAFixedPoint(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	h := hypergraph.NewBuilder(10).MustBuild()
	p, res, err := Partition(h, nil, Config{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cut != 0 || p.Cut(h) != 0 {
		t.Error("cut must be 0 with no nets")
	}
}

func TestConfigNormalizeDefaults(t *testing.T) {
	c, err := Config{}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if c.Tolerance != 0.1 || c.MaxNetSize != 200 {
		t.Errorf("defaults = %+v", c)
	}
}

func TestConfigNormalizeErrors(t *testing.T) {
	bad := []Config{
		{Tolerance: -0.5},
		{Tolerance: 1.5},
		{MaxPasses: -1},
		{Lookahead: 7},
		{Engine: Engine(9)},
		{Order: gainbucket.Order(9)},
	}
	for i, c := range bad {
		if _, err := c.Normalize(); err == nil {
			t.Errorf("config %d should fail: %+v", i, c)
		}
	}
}

func TestEngineString(t *testing.T) {
	if EngineFM.String() != "FM" || EngineCLIP.String() != "CLIP" {
		t.Error("engine labels wrong")
	}
	if Engine(5).String() == "" {
		t.Error("unknown engine should stringify")
	}
}

func TestRefineRejectsBadInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	h := randomH(rng, 10, 10, 3)
	if _, err := Refine(h, &hypergraph.Partition{Part: make([]int32, 10), K: 4}, Config{}, rng); err == nil {
		t.Error("expected error for K=4")
	}
	if _, err := Refine(h, &hypergraph.Partition{Part: make([]int32, 3), K: 2}, Config{}, rng); err == nil {
		t.Error("expected error for wrong length")
	}
	if _, _, err := Partition(h, &hypergraph.Partition{Part: make([]int32, 10), K: 3}, Config{}, rng); err == nil {
		t.Error("expected error for K=3 initial")
	}
}

// TestIncrementalGainsMatchRecompute is the white-box invariant test:
// after every applied move, the incrementally maintained gain of each
// free cell must equal a from-scratch recomputation.
func TestIncrementalGainsMatchRecompute(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := randomH(rng, 30, 60, 5)
		p := hypergraph.RandomPartition(h, 2, 0.1, rng)
		cfg, _ := Config{}.Normalize()
		r := newRefiner(h, p, cfg, rng)
		r.countPins()
		r.InitPass()
		for step := 0; step < 20; step++ {
			v := r.selectMove()
			if v < 0 {
				break
			}
			r.applyMove(v)
			for u := int32(0); int(u) < h.NumCells(); u++ {
				if r.locked[u] {
					continue
				}
				if got, want := r.gain[u], r.computeGain(u); got != want {
					t.Fatalf("seed %d step %d: cell %d incremental gain %d != recomputed %d",
						seed, step, u, got, want)
				}
			}
		}
	}
}

// TestActiveCutTracking verifies the incrementally maintained cut
// matches a recount after moves and after rollback.
func TestActiveCutTracking(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	h := randomH(rng, 40, 80, 5)
	p := hypergraph.RandomPartition(h, 2, 0.1, rng)
	cfg, _ := Config{}.Normalize()
	r := newRefiner(h, p, cfg, rng)
	r.countPins()
	recount := func() int {
		n := 0
		for e := 0; e < h.NumNets(); e++ {
			if c0 := int(r.nets[e].c0); c0 != inactive && c0 > 0 && c0 < h.NetSize(e) {
				n++
			}
		}
		return n
	}
	r.InitPass()
	for step := 0; step < 25; step++ {
		v := r.selectMove()
		if v < 0 {
			break
		}
		r.applyMove(v)
		if r.activeCut != recount() {
			t.Fatalf("step %d: activeCut %d != recount %d", step, r.activeCut, recount())
		}
	}
	for i := len(r.moveCells) - 1; i >= 0; i-- {
		r.undoMove(r.moveCells[i])
		if r.activeCut != recount() {
			t.Fatalf("undo %d: activeCut %d != recount %d", i, r.activeCut, recount())
		}
	}
}

// TestPassGainMatchesCutDelta: the gain realized by a pass equals the
// decrease in the active-net cut.
func TestPassGainMatchesCutDelta(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := randomH(rng, 50, 90, 5)
		p := hypergraph.RandomPartition(h, 2, 0.1, rng)
		cfg, _ := Config{}.Normalize()
		r := newRefiner(h, p, cfg, rng)
		r.countPins()
		before := r.activeCut
		var d Passes
		improved, _, _ := d.Pass(r)
		if got := before - r.activeCut; got != improved {
			t.Fatalf("seed %d: pass reported gain %d but cut fell by %d", seed, improved, got)
		}
	}
}

func TestCLIPKeysStayInRange(t *testing.T) {
	// CLIP bucket keys are deltas; |delta| ≤ 2·maxDeg must hold
	// throughout a pass (the doubled index range of §II.B). The
	// gainbucket panics if violated, so simply run to completion.
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := randomH(rng, 60, 150, 6)
		if _, _, err := Partition(h, nil, Config{Engine: EngineCLIP}, rng); err != nil {
			t.Fatal(err)
		}
	}
}

func TestMaxPassesRespected(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	h := randomH(rng, 80, 160, 5)
	_, res, err := Partition(h, nil, Config{MaxPasses: 1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.Passes != 1 {
		t.Errorf("Passes = %d, want 1", res.Passes)
	}
}

func TestWeightedCellsRespectBalance(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	b := hypergraph.NewBuilder(30)
	for v := 0; v < 30; v++ {
		b.SetArea(v, int64(1+rng.Intn(10)))
	}
	for e := 0; e < 60; e++ {
		b.AddNet(rng.Intn(30), rng.Intn(30), rng.Intn(30))
	}
	h := b.MustBuild()
	bound := hypergraph.Balance(h, 2, 0.1)
	for seed := int64(0); seed < 5; seed++ {
		p, _, err := Partition(h, nil, Config{}, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		if !p.IsBalanced(h, bound) {
			t.Errorf("seed %d: unbalanced %v vs %+v", seed, p.BlockAreas(h), bound)
		}
	}
}

func TestNoNetSizeLimit(t *testing.T) {
	// MaxNetSize < 0 disables the filter: the giant net is refined
	// directly.
	rng := rand.New(rand.NewSource(41))
	b := hypergraph.NewBuilder(30)
	all := make([]int, 30)
	for i := range all {
		all[i] = i
	}
	b.AddNet(all...)
	for i := 0; i < 29; i++ {
		b.AddNet(i, i+1)
	}
	h := b.MustBuild()
	p, res, err := Partition(h, nil, Config{MaxNetSize: -1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cut != p.Cut(h) {
		t.Error("cut mismatch with unlimited net size")
	}
}

func TestWideToleranceAllowsLopsided(t *testing.T) {
	// A dense 38-cell blob plus an isolated pair. With r = 0.9 the
	// bound is [2, 38], so {pair | blob} is feasible and FM should
	// find the cut-0 solution.
	rng := rand.New(rand.NewSource(42))
	b := hypergraph.NewBuilder(40)
	for e := 0; e < 120; e++ {
		b.AddNet(rng.Intn(38), rng.Intn(38))
	}
	b.AddNet(38, 39)
	h := b.MustBuild()
	best := 1 << 30
	for seed := int64(0); seed < 8; seed++ {
		_, res, err := Partition(h, nil, Config{Tolerance: 0.9}, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		if res.Cut < best {
			best = res.Cut
		}
	}
	if best != 0 {
		t.Errorf("best cut %d with r=0.9, want 0 (lopsided solution feasible)", best)
	}
}

func TestTwoCellInstance(t *testing.T) {
	h := hypergraph.NewBuilder(2).AddNet(0, 1).MustBuild()
	rng := rand.New(rand.NewSource(43))
	p, res, err := Partition(h, nil, Config{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	// With two unit cells the §III.B max-cell slack makes even the
	// one-sided solution legal, so FM may (and should) reach cut 0.
	if res.Cut != p.Cut(h) {
		t.Errorf("cut mismatch: %d vs %d", res.Cut, p.Cut(h))
	}
	if res.Cut != 0 {
		t.Errorf("cut = %d, want 0 (one-sided is within the bound)", res.Cut)
	}
	if !p.IsBalanced(h, hypergraph.Balance(h, 2, 0.1)) {
		t.Error("outside the balance bound")
	}
}

func TestDeterministicPerSeedAllEngines(t *testing.T) {
	h := randomH(rand.New(rand.NewSource(60)), 80, 160, 5)
	for _, eng := range []Engine{EngineFM, EngineCLIP, EnginePROP, EngineCLIPPROP} {
		a, ra, err := Partition(h, nil, Config{Engine: eng}, rand.New(rand.NewSource(9)))
		if err != nil {
			t.Fatalf("%v: %v", eng, err)
		}
		b, rb, err := Partition(h, nil, Config{Engine: eng}, rand.New(rand.NewSource(9)))
		if err != nil {
			t.Fatalf("%v: %v", eng, err)
		}
		if ra.Cut != rb.Cut {
			t.Errorf("%v: cuts differ %d vs %d", eng, ra.Cut, rb.Cut)
		}
		for v := range a.Part {
			if a.Part[v] != b.Part[v] {
				t.Fatalf("%v: partitions differ", eng)
			}
		}
	}
}

func TestPassCountMonotonicity(t *testing.T) {
	// Per the paper, FM terminates when a pass yields no improvement:
	// the reported Passes must therefore be ≥ 1 and the final pass
	// non-improving (so quality equals what Passes−1 passes achieved).
	rng := rand.New(rand.NewSource(61))
	h := randomH(rng, 120, 240, 4)
	_, res, err := Partition(h, nil, Config{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.Passes < 1 {
		t.Errorf("Passes = %d", res.Passes)
	}
	if res.MovesTried < res.Moves {
		t.Errorf("MovesTried %d < Moves %d", res.MovesTried, res.Moves)
	}
}

func TestWeightedNetsDriveRefinement(t *testing.T) {
	// Two candidate cuts: a weight-10 net and ten weight-1 nets. The
	// engine must prefer cutting the cheap nets. Construct: cells
	// 0..3; heavy net {0,1}; light nets {1,2}... simpler: chain with
	// a heavy middle link vs light outer links and wide tolerance.
	b := hypergraph.NewBuilder(4)
	b.AddWeightedNet(10, 1, 2) // heavy middle
	b.AddNet(0, 1)
	b.AddNet(2, 3)
	h := b.MustBuild()
	best := 1 << 30
	for seed := int64(0); seed < 6; seed++ {
		_, res, err := Partition(h, nil, Config{Tolerance: 0.5}, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		if res.Cut < best {
			best = res.Cut
		}
	}
	// Optimal split {0,1}|{2,3}: cuts only the heavy net? No — that
	// cuts the weight-10 net (cost 10). Split {0}|{1,2,3} cuts one
	// light net (cost 1) and is within tolerance 0.5 (areas 1|3,
	// bound [1,3]). The engine must find cost 1.
	if best != 1 {
		t.Errorf("best weighted cut = %d, want 1", best)
	}
}

func TestWeightedRefineNeverWorsens(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(40)
		b := hypergraph.NewBuilder(n)
		for e := 0; e < n*2; e++ {
			b.AddWeightedNet(int32(1+rng.Intn(5)), rng.Intn(n), rng.Intn(n), rng.Intn(n))
		}
		h := b.MustBuild()
		for _, eng := range []Engine{EngineFM, EngineCLIP, EnginePROP} {
			p := hypergraph.RandomPartition(h, 2, 0.1, rng)
			before := p.WeightedCut(h)
			res, err := Refine(h, p, Config{Engine: eng}, rng)
			if err != nil {
				return false
			}
			if res.Cut > before || res.Cut != p.WeightedCut(h) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestWeightedIncrementalGainsMatchRecompute(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 30
		b := hypergraph.NewBuilder(n)
		for e := 0; e < 60; e++ {
			b.AddWeightedNet(int32(1+rng.Intn(4)), rng.Intn(n), rng.Intn(n), rng.Intn(n))
		}
		h := b.MustBuild()
		p := hypergraph.RandomPartition(h, 2, 0.1, rng)
		cfg, _ := Config{}.Normalize()
		r := newRefiner(h, p, cfg, rng)
		r.countPins()
		r.InitPass()
		for step := 0; step < 15; step++ {
			v := r.selectMove()
			if v < 0 {
				break
			}
			r.applyMove(v)
			for u := int32(0); int(u) < h.NumCells(); u++ {
				if r.locked[u] {
					continue
				}
				if r.gain[u] != r.computeGain(u) {
					t.Fatalf("seed %d step %d: weighted gain stale for cell %d", seed, step, u)
				}
			}
		}
	}
}
