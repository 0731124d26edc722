package fm

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mlpart/internal/hypergraph"
)

func TestPROPFindsOptimumOnTwoClusters(t *testing.T) {
	h := twoClusters(t, 8)
	for _, eng := range []Engine{EnginePROP, EngineCLIPPROP} {
		found := false
		for seed := int64(0); seed < 10; seed++ {
			rng := rand.New(rand.NewSource(seed))
			_, res, err := Partition(h, nil, Config{Engine: eng}, rng)
			if err != nil {
				t.Fatal(err)
			}
			if res.Cut == 1 {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%v never found the optimal cut of 1", eng)
		}
	}
}

func TestPROPNeverWorsens(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := randomH(rng, 10+rng.Intn(50), 20+rng.Intn(80), 5)
		for _, eng := range []Engine{EnginePROP, EngineCLIPPROP} {
			p := hypergraph.RandomPartition(h, 2, 0.1, rng)
			before := p.Cut(h)
			res, err := Refine(h, p, Config{Engine: eng}, rng)
			if err != nil {
				return false
			}
			if res.Cut > before || res.Cut != p.Cut(h) {
				return false
			}
			if !p.IsBalanced(h, hypergraph.Balance(h, 2, 0.1)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestPROPGainReducesToFMAtZeroProb(t *testing.T) {
	// With p₀ → 0 the PROP gain must equal the FM gain for every
	// cell at pass start. Use a tiny but nonzero p₀ so Normalize
	// accepts it, and compare after rounding.
	rng := rand.New(rand.NewSource(3))
	h := randomH(rng, 30, 60, 5)
	p := hypergraph.RandomPartition(h, 2, 0.1, rng)
	cfgP, _ := Config{Engine: EnginePROP, InitialProb: 1e-12}.Normalize()
	pr := newPropRefiner(h, p.Clone(), cfgP, rng)
	pr.computeCounts()
	cfgF, _ := Config{}.Normalize()
	fr := newRefiner(h, p.Clone(), cfgF, rng)
	fr.countPins()
	for v := int32(0); int(v) < h.NumCells(); v++ {
		want := float64(fr.computeGain(v))
		got := pr.computeGain(v)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("cell %d: PROP gain %v != FM gain %v at p₀≈0", v, got, want)
		}
	}
}

func TestPROPGainDefinition(t *testing.T) {
	// 4 cells, side 0 = {0,1}, side 1 = {2,3}.
	// net A = {0,1} uncut; net B = {0,2} cut.
	h := hypergraph.NewBuilder(4).
		AddNet(0, 1).
		AddNet(0, 2).
		MustBuild()
	p := &hypergraph.Partition{Part: []int32{0, 0, 1, 1}, K: 2}
	cfg, _ := Config{Engine: EnginePROP, InitialProb: 0.5}.Normalize()
	r := newPropRefiner(h, p, cfg, rand.New(rand.NewSource(0)))
	r.computeCounts()
	// gain(0): net A uncut, A(e,0) = p₀^(freeF−1) = 0.5^1 = 0.5 →
	// −(1−0.5) = −0.5; net B cut, A = 0.5^0 = 1 → +1. Total 0.5.
	if g := r.computeGain(0); math.Abs(g-0.5) > 1e-12 {
		t.Errorf("gain(0) = %v, want 0.5", g)
	}
	// gain(1): only net A, uncut → −(1 − 0.5) = −0.5.
	if g := r.computeGain(1); math.Abs(g+0.5) > 1e-12 {
		t.Errorf("gain(1) = %v, want −0.5", g)
	}
	// gain(2): only net B, cut, A = 1 → +1.
	if g := r.computeGain(2); math.Abs(g-1) > 1e-12 {
		t.Errorf("gain(2) = %v, want 1", g)
	}
}

func TestPROPLockedPinsZeroA(t *testing.T) {
	h := hypergraph.NewBuilder(3).AddNet(0, 1, 2).MustBuild()
	p := &hypergraph.Partition{Part: []int32{0, 0, 1}, K: 2}
	cfg, _ := Config{Engine: EnginePROP}.Normalize()
	r := newPropRefiner(h, p, cfg, rand.New(rand.NewSource(0)))
	r.computeCounts()
	r.InitPass()
	// Lock cell 1 by moving it.
	r.applyMove(1)
	// Now cell 0's net has a locked pin on side 1 (where 1 landed);
	// for cell 2 on side 1, A must be 0 (locked companion).
	if a := r.netA(0, 1); a != 0 {
		t.Errorf("A with locked companion = %v, want 0", a)
	}
}

func TestPROPIncrementalMatchesRecompute(t *testing.T) {
	// The heap entries are rebuilt from computeGain on every move, so
	// the invariant is that gain[u] always equals computeGain(u) for
	// free cells.
	rng := rand.New(rand.NewSource(5))
	h := randomH(rng, 30, 60, 5)
	p := hypergraph.RandomPartition(h, 2, 0.1, rng)
	cfg, _ := Config{Engine: EnginePROP}.Normalize()
	r := newPropRefiner(h, p, cfg, rng)
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
			if math.Abs(r.gain[u]-r.computeGain(u)) > 1e-9 {
				t.Fatalf("step %d: cell %d stale gain", step, u)
			}
		}
	}
}

func TestPROPPassGainMatchesCutDelta(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := randomH(rng, 40, 80, 5)
		p := hypergraph.RandomPartition(h, 2, 0.1, rng)
		cfg, _ := Config{Engine: EnginePROP}.Normalize()
		r := newPropRefiner(h, p, cfg, rng)
		before := p.Cut(h)
		var d Passes
		improved, _, _ := d.Pass(r)
		after := p.Cut(h)
		// improved counts only active nets; with default MaxNetSize
		// all nets here are active.
		if before-after != improved {
			t.Fatalf("seed %d: pass gain %d but cut fell by %d", seed, improved, before-after)
		}
	}
}

func TestPROPConfigValidation(t *testing.T) {
	for _, bad := range []Config{
		{Engine: EnginePROP, InitialProb: 1.5},
		{Engine: EnginePROP, InitialProb: -0.1},
		{Engine: EnginePROP, Boundary: true},
		{Engine: EngineCLIPPROP, Lookahead: 3},
		{Engine: EnginePROP, EarlyExit: true},
		{Engine: EngineCLIPPROP, EarlyExit: true},
		{Engine: EnginePROP, Backtrack: true},
	} {
		if _, err := bad.Normalize(); err == nil {
			t.Errorf("bad config accepted: %+v", bad)
		}
	}
	c, err := Config{Engine: EnginePROP}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if c.InitialProb != DefaultInitialProb {
		t.Errorf("default p₀ = %v", c.InitialProb)
	}
}

func TestPROPEngineStrings(t *testing.T) {
	if EnginePROP.String() != "PROP" || EngineCLIPPROP.String() != "CL-PR" {
		t.Error("engine labels wrong")
	}
}

func TestPROPOnAverageAtLeastAsGoodAsFM(t *testing.T) {
	// [13] reports PROP significantly outperforms FM; on a clustered
	// instance the average over a handful of runs should not be
	// dramatically worse.
	rng := rand.New(rand.NewSource(8))
	b := hypergraph.NewBuilder(120)
	for g := 0; g < 4; g++ {
		base := g * 30
		for i := 0; i < 90; i++ {
			b.AddNet(base+rng.Intn(30), base+rng.Intn(30))
		}
	}
	for i := 0; i < 6; i++ {
		b.AddNet(rng.Intn(120), rng.Intn(120))
	}
	h := b.MustBuild()
	sum := func(eng Engine) int {
		total := 0
		for seed := int64(0); seed < 6; seed++ {
			_, res, err := Partition(h, nil, Config{Engine: eng}, rand.New(rand.NewSource(seed)))
			if err != nil {
				t.Fatal(err)
			}
			total += res.Cut
		}
		return total
	}
	fmSum, propSum := sum(EngineFM), sum(EnginePROP)
	if propSum > fmSum*3/2 {
		t.Errorf("PROP total %d much worse than FM total %d", propSum, fmSum)
	}
}
