package kway

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mlpart/internal/fm"
	"mlpart/internal/gainbucket"
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

// fourClusters builds 4 dense groups of k cells with sparse bridges;
// the optimal 4-way net cut is 4 (a ring of bridges).
func fourClusters(t *testing.T, k int) *hypergraph.Hypergraph {
	t.Helper()
	b := hypergraph.NewBuilder(4 * k)
	for g := 0; g < 4; g++ {
		base := g * k
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				b.AddNet(base+i, base+j)
			}
		}
	}
	for g := 0; g < 4; g++ {
		b.AddNet(g*k, ((g+1)%4)*k) // ring bridge
	}
	h, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestQuadrisectionFindsClusterStructure(t *testing.T) {
	h := fourClusters(t, 6)
	best := 1 << 30
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p, res, err := Partition(h, nil, Config{}, rng)
		if err != nil {
			t.Fatal(err)
		}
		if res.CutNets != p.Cut(h) {
			t.Fatalf("CutNets %d != measured %d", res.CutNets, p.Cut(h))
		}
		if res.CutNets < best {
			best = res.CutNets
		}
	}
	if best > 4 {
		t.Errorf("best 4-way cut %d over 10 runs; optimum is 4", best)
	}
}

func TestRefineNeverWorsens(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := randomH(rng, 20+rng.Intn(60), 30+rng.Intn(80), 5)
		for _, obj := range []Objective{SumOfDegrees, NetCut} {
			p := hypergraph.RandomPartition(h, 4, 0.1, rng)
			cfg := Config{Objective: obj}
			before := p.SumOfDegrees(h)
			beforeCut := p.Cut(h)
			res, err := Refine(h, p, cfg, rng)
			if err != nil {
				return false
			}
			if res.InitialSumDegrees != before || res.InitialCutNets != beforeCut {
				return false
			}
			// The optimized objective must not worsen.
			if obj == SumOfDegrees && res.SumDegrees > before {
				return false
			}
			if obj == NetCut && res.CutNets > beforeCut {
				return false
			}
			if res.CutNets != p.Cut(h) || res.SumDegrees != p.SumOfDegrees(h) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestRefineKeepsBalance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := randomH(rng, 40+rng.Intn(80), 60+rng.Intn(100), 5)
		p := hypergraph.RandomPartition(h, 4, 0.1, rng)
		if _, err := Refine(h, p, Config{}, rng); err != nil {
			return false
		}
		return p.IsBalanced(h, hypergraph.Balance(h, 4, 0.1))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestFixedCellsNeverMove(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	h := randomH(rng, 60, 120, 4)
	p := hypergraph.RandomPartition(h, 4, 0.1, rng)
	fixed := make([]bool, 60)
	var fixedCells []int
	for v := 0; v < 60; v += 7 {
		fixed[v] = true
		fixedCells = append(fixedCells, v)
	}
	want := map[int]int32{}
	for _, v := range fixedCells {
		want[v] = p.Part[v]
	}
	if _, err := Refine(h, p, Config{Fixed: fixed}, rng); err != nil {
		t.Fatal(err)
	}
	for _, v := range fixedCells {
		if p.Part[v] != want[v] {
			t.Errorf("fixed cell %d moved from %d to %d", v, want[v], p.Part[v])
		}
	}
}

func TestBipartitionAsKway(t *testing.T) {
	// K=2 with NetCut must behave like a (slower) FM: improve and
	// stay balanced.
	rng := rand.New(rand.NewSource(6))
	h := randomH(rng, 80, 160, 4)
	p := hypergraph.RandomPartition(h, 2, 0.1, rng)
	before := p.Cut(h)
	res, err := Refine(h, p, Config{K: 2, Objective: NetCut}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.CutNets > before {
		t.Errorf("K=2 refinement worsened: %d → %d", before, res.CutNets)
	}
	// For K=2 the two objectives coincide.
	if res.CutNets != res.SumDegrees {
		t.Errorf("K=2: cut %d != sum-degrees %d", res.CutNets, res.SumDegrees)
	}
}

func TestGainConsistencyWhiteBox(t *testing.T) {
	// After every applied move, incremental gains must match a
	// from-scratch recomputation.
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := randomH(rng, 24, 50, 5)
		p := hypergraph.RandomPartition(h, 4, 0.2, rng)
		for _, obj := range []Objective{SumOfDegrees, NetCut} {
			cfg, _ := Config{Objective: obj}.Normalize()
			r := newRefiner(h, p.Clone(), cfg, rng)
			r.p = p.Clone()
			r.computeCounts()
			r.InitPass()
			for step := 0; step < 15; step++ {
				v, t0 := r.selectMove()
				if v < 0 {
					break
				}
				r.applyMove(v, t0)
				// Snapshot incremental gains, recompute, compare.
				got := make([]int32, len(r.gain))
				copy(got, r.gain)
				r.computeGains()
				for u := 0; u < h.NumCells(); u++ {
					if r.locked[u] {
						continue
					}
					for tt := 0; tt < r.k; tt++ {
						if int32(tt) == r.p.Part[u] {
							continue
						}
						if got[u*r.k+tt] != r.gain[u*r.k+tt] {
							t.Fatalf("seed %d obj %v step %d: gain(%d→%d) incremental %d != recomputed %d",
								seed, obj, step, u, tt, got[u*r.k+tt], r.gain[u*r.k+tt])
						}
					}
				}
				copy(r.gain, got)
			}
		}
	}
}

func TestCostTrackingWhiteBox(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	h := randomH(rng, 30, 60, 5)
	p := hypergraph.RandomPartition(h, 4, 0.2, rng)
	cfg, _ := Config{Objective: SumOfDegrees}.Normalize()
	r := newRefiner(h, p, cfg, rng)
	r.computeCounts()
	recount := func() int {
		c := 0
		for e := 0; e < h.NumNets(); e++ {
			if r.active[e] {
				c += r.netCost(int32(p.NetSpan(h, e)))
			}
		}
		return c
	}
	r.InitPass()
	for step := 0; step < 20; step++ {
		v, t0 := r.selectMove()
		if v < 0 {
			break
		}
		r.applyMove(v, t0)
		if r.cost != recount() {
			t.Fatalf("step %d: cost %d != recount %d", step, r.cost, recount())
		}
	}
	for i := len(r.moveCells) - 1; i >= 0; i-- {
		r.undoMove(r.moveCells[i], r.moveFrom[i])
		if r.cost != recount() {
			t.Fatalf("undo %d: cost %d != recount %d", i, r.cost, recount())
		}
	}
}

func TestPassGainMatchesObjectiveDelta(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := randomH(rng, 50, 100, 5)
		p := hypergraph.RandomPartition(h, 4, 0.1, rng)
		cfg, _ := Config{}.Normalize()
		r := newRefiner(h, p, cfg, rng)
		r.computeCounts()
		before := r.cost
		var d fm.Passes
		improved, _, _ := d.Pass(r)
		if got := before - r.cost; got != improved {
			t.Fatalf("seed %d: pass gain %d but cost fell by %d", seed, improved, got)
		}
	}
}

func TestConfigNormalize(t *testing.T) {
	c, err := Config{}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if c.K != 4 || c.Tolerance != 0.1 || c.MaxNetSize != 200 {
		t.Errorf("defaults = %+v", c)
	}
	bad := []Config{
		{K: 1}, {K: 100}, {Tolerance: -1}, {Tolerance: 1},
		{MaxPasses: -2}, {Objective: Objective(9)}, {Order: gainbucket.Order(9)},
	}
	for i, cfg := range bad {
		if _, err := cfg.Normalize(); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, cfg)
		}
	}
}

func TestPartitionErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	h := randomH(rng, 10, 10, 3)
	if _, _, err := Partition(h, nil, Config{Fixed: make([]bool, 10)}, rng); err == nil {
		t.Error("Fixed without initial must error")
	}
	wrongK := hypergraph.NewPartition(10, 3)
	if _, _, err := Partition(h, wrongK, Config{K: 4}, rng); err == nil {
		t.Error("K mismatch must error")
	}
	if _, err := Refine(h, hypergraph.NewPartition(10, 4), Config{Fixed: make([]bool, 3)}, rng); err == nil {
		t.Error("bad Fixed length must error")
	}
}

func TestObjectiveString(t *testing.T) {
	if SumOfDegrees.String() != "sum-of-degrees" || NetCut.String() != "net-cut" {
		t.Error("objective labels wrong")
	}
	if Objective(5).String() == "" {
		t.Error("unknown objective should stringify")
	}
}

func TestAllOrders(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	h := randomH(rng, 60, 120, 4)
	for _, ord := range []gainbucket.Order{gainbucket.LIFO, gainbucket.FIFO, gainbucket.Random} {
		p, res, err := Partition(h, nil, Config{Order: ord}, rng)
		if err != nil {
			t.Fatalf("%v: %v", ord, err)
		}
		if res.CutNets != p.Cut(h) {
			t.Errorf("%v: cut mismatch", ord)
		}
	}
}

func TestCLIPEngineKway(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	h := randomH(rng, 100, 200, 5)
	for _, obj := range []Objective{SumOfDegrees, NetCut} {
		p := hypergraph.RandomPartition(h, 4, 0.1, rng)
		before := p.SumOfDegrees(h)
		res, err := Refine(h, p, Config{Engine: fm.EngineCLIP, Objective: obj}, rng)
		if err != nil {
			t.Fatalf("obj %v: %v", obj, err)
		}
		if obj == SumOfDegrees && res.SumDegrees > before {
			t.Errorf("CLIP k-way worsened sum-of-degrees: %d → %d", before, res.SumDegrees)
		}
		if res.CutNets != p.Cut(h) {
			t.Error("cut mismatch")
		}
		if !p.IsBalanced(h, hypergraph.Balance(h, 4, 0.1)) {
			t.Error("unbalanced")
		}
	}
}

func TestCLIPEngineKwayBadEngine(t *testing.T) {
	if _, err := (Config{Engine: fm.Engine(9)}).Normalize(); err == nil {
		t.Error("bad engine accepted")
	}
}

func TestEightWayPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	h := randomH(rng, 160, 320, 4)
	p, res, err := Partition(h, nil, Config{K: 8}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if p.K != 8 {
		t.Fatalf("K = %d", p.K)
	}
	if res.CutNets != p.Cut(h) {
		t.Error("cut mismatch")
	}
	if !p.IsBalanced(h, hypergraph.Balance(h, 8, 0.1)) {
		t.Error("8-way unbalanced")
	}
}

func TestKwayNoNetSizeLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	b := hypergraph.NewBuilder(24)
	all := make([]int, 24)
	for i := range all {
		all[i] = i
	}
	b.AddNet(all...)
	for i := 0; i < 23; i++ {
		b.AddNet(i, i+1)
	}
	h := b.MustBuild()
	p, res, err := Partition(h, nil, Config{MaxNetSize: -1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.CutNets != p.Cut(h) {
		t.Error("cut mismatch")
	}
}

func TestCLIPKwayGainConsistencyWhiteBox(t *testing.T) {
	// The CLIP k-way engine shares the gain arrays with plain k-way
	// FM; only the bucket keys differ. Verify incremental gains match
	// recomputation under the CLIP engine too.
	for seed := int64(0); seed < 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := randomH(rng, 24, 50, 5)
		p := hypergraph.RandomPartition(h, 4, 0.2, rng)
		cfg, _ := Config{Engine: fm.EngineCLIP}.Normalize()
		r := newRefiner(h, p.Clone(), cfg, rng)
		r.computeCounts()
		r.InitPass()
		for step := 0; step < 12; step++ {
			v, t0 := r.selectMove()
			if v < 0 {
				break
			}
			r.applyMove(v, t0)
			got := make([]int32, len(r.gain))
			copy(got, r.gain)
			r.computeGains()
			for u := 0; u < h.NumCells(); u++ {
				if r.locked[u] {
					continue
				}
				for tt := 0; tt < r.k; tt++ {
					if int32(tt) == r.p.Part[u] {
						continue
					}
					if got[u*r.k+tt] != r.gain[u*r.k+tt] {
						t.Fatalf("seed %d step %d: CLIP gain(%d→%d) stale", seed, step, u, tt)
					}
				}
			}
			copy(r.gain, got)
		}
	}
}

func TestWeightedKway(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	n := 40
	b := hypergraph.NewBuilder(n)
	for e := 0; e < 80; e++ {
		b.AddWeightedNet(int32(1+rng.Intn(4)), rng.Intn(n), rng.Intn(n), rng.Intn(n))
	}
	h := b.MustBuild()
	for _, obj := range []Objective{SumOfDegrees, NetCut} {
		p := hypergraph.RandomPartition(h, 4, 0.1, rng)
		before := p.WeightedSumOfDegrees(h)
		beforeCut := p.WeightedCut(h)
		res, err := Refine(h, p, Config{Objective: obj}, rng)
		if err != nil {
			t.Fatal(err)
		}
		if obj == SumOfDegrees && res.SumDegrees > before {
			t.Errorf("weighted sum-of-degrees worsened: %d → %d", before, res.SumDegrees)
		}
		if obj == NetCut && res.CutNets > beforeCut {
			t.Errorf("weighted cut worsened: %d → %d", beforeCut, res.CutNets)
		}
		if res.CutNets != p.WeightedCut(h) || res.SumDegrees != p.WeightedSumOfDegrees(h) {
			t.Error("weighted metrics mismatch")
		}
	}
}

func TestWeightedKwayGainConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	n := 24
	b := hypergraph.NewBuilder(n)
	for e := 0; e < 50; e++ {
		b.AddWeightedNet(int32(1+rng.Intn(3)), rng.Intn(n), rng.Intn(n))
	}
	h := b.MustBuild()
	p := hypergraph.RandomPartition(h, 4, 0.2, rng)
	cfg, _ := Config{}.Normalize()
	r := newRefiner(h, p, cfg, rng)
	r.computeCounts()
	r.InitPass()
	for step := 0; step < 12; step++ {
		v, t0 := r.selectMove()
		if v < 0 {
			break
		}
		r.applyMove(v, t0)
		got := make([]int32, len(r.gain))
		copy(got, r.gain)
		r.computeGains()
		for i := range got {
			u, tt := i/r.k, i%r.k
			if r.locked[u] || int32(tt) == r.p.Part[u] {
				continue
			}
			if got[i] != r.gain[i] {
				t.Fatalf("step %d: weighted gain(%d→%d) stale", step, u, tt)
			}
		}
		copy(r.gain, got)
	}
}
