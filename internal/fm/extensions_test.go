package fm

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mlpart/internal/hypergraph"
)

func TestBoundaryModeMatchesQualityEnvelope(t *testing.T) {
	// Boundary FM must remain correct: never worsen, stay balanced,
	// report consistent cuts.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := randomH(rng, 20+rng.Intn(60), 30+rng.Intn(80), 5)
		p := hypergraph.RandomPartition(h, 2, 0.1, rng)
		before := p.Cut(h)
		res, err := Refine(h, p, Config{Boundary: true}, rng)
		if err != nil {
			return false
		}
		bound := hypergraph.Balance(h, 2, 0.1)
		return res.Cut <= before && res.Cut == p.Cut(h) && p.IsBalanced(h, bound)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestBoundaryFindsOptimumOnTwoClusters(t *testing.T) {
	h := twoClusters(t, 6)
	found := false
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		_, res, err := Partition(h, nil, Config{Boundary: true}, rng)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cut == 1 {
			found = true
		}
	}
	if !found {
		t.Error("boundary FM never found optimum")
	}
}

func TestEarlyExitStillImproves(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	h := randomH(rng, 120, 240, 5)
	p := hypergraph.RandomPartition(h, 2, 0.1, rng)
	before := p.Cut(h)
	res, err := Refine(h, p, Config{EarlyExit: true}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cut > before {
		t.Errorf("early-exit worsened: %d → %d", before, res.Cut)
	}
	if res.Cut != p.Cut(h) {
		t.Error("cut mismatch")
	}
}

func TestEarlyExitTriesFewerMoves(t *testing.T) {
	// On a sizable instance, early exit should abandon pass suffixes,
	// so across identical seeds it tries no more moves than full FM.
	h := randomH(rand.New(rand.NewSource(33)), 300, 600, 4)
	full, _, err := Partition(h, nil, Config{}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	_ = full
	var fullRes, earlyRes Result
	_, fullRes, err = Partition(h, nil, Config{}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	_, earlyRes, err = Partition(h, nil, Config{EarlyExit: true}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	perPassFull := float64(fullRes.MovesTried) / float64(fullRes.Passes)
	perPassEarly := float64(earlyRes.MovesTried) / float64(earlyRes.Passes)
	if perPassEarly > perPassFull {
		t.Errorf("early exit tried more moves per pass (%.1f) than full FM (%.1f)",
			perPassEarly, perPassFull)
	}
}

func TestLookaheadLevels(t *testing.T) {
	for _, la := range []int{0, 2, 3} {
		for _, eng := range []Engine{EngineFM, EngineCLIP} {
			rng := rand.New(rand.NewSource(21))
			h := randomH(rng, 60, 120, 5)
			p, res, err := Partition(h, nil, Config{Lookahead: la, Engine: eng}, rng)
			if err != nil {
				t.Fatalf("la=%d eng=%v: %v", la, eng, err)
			}
			if res.Cut != p.Cut(h) {
				t.Errorf("la=%d eng=%v: cut mismatch", la, eng)
			}
			bound := hypergraph.Balance(h, 2, 0.1)
			if !p.IsBalanced(h, bound) {
				t.Errorf("la=%d eng=%v: unbalanced", la, eng)
			}
		}
	}
}

func TestLevelGainDefinition(t *testing.T) {
	// 4 cells: side 0 = {0,1}, side 1 = {2,3}.
	// net A = {0,1}: both free on side 0.
	// net B = {0,2}: cut.
	h := hypergraph.NewBuilder(4).
		AddNet(0, 1).
		AddNet(0, 2).
		MustBuild()
	p := &hypergraph.Partition{Part: []int32{0, 0, 1, 1}, K: 2}
	cfg, _ := Config{Lookahead: 2}.Normalize()
	r := newRefiner(h, p, cfg, rand.New(rand.NewSource(0)))
	r.countPins()
	r.InitPass()
	// γ2(0): net A has free(F)=2 → +1; net B: free(T of move, side 1)
	// = 1 = k−1 → −1. Total 0.
	if g := r.levelGain(0, 2); g != 0 {
		t.Errorf("levelGain(0,2) = %d, want 0", g)
	}
	// γ2(1): net A free(F)=2 → +1; no net on side 1 → total +1.
	if g := r.levelGain(1, 2); g != 1 {
		t.Errorf("levelGain(1,2) = %d, want 1", g)
	}
}

func TestCombinedExtensions(t *testing.T) {
	// All extensions on at once must still be sound.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := randomH(rng, 30+rng.Intn(50), 60+rng.Intn(60), 4)
		p := hypergraph.RandomPartition(h, 2, 0.1, rng)
		before := p.Cut(h)
		res, err := Refine(h, p, Config{
			Engine: EngineCLIP, Boundary: true, EarlyExit: true, Lookahead: 3,
		}, rng)
		if err != nil {
			return false
		}
		return res.Cut <= before && res.Cut == p.Cut(h)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestBacktrackSoundness(t *testing.T) {
	// CDIP-style backtracking must preserve all engine invariants:
	// never worsen, consistent cut, balance.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := randomH(rng, 30+rng.Intn(60), 50+rng.Intn(80), 5)
		for _, eng := range []Engine{EngineFM, EngineCLIP} {
			p := hypergraph.RandomPartition(h, 2, 0.1, rng)
			before := p.Cut(h)
			res, err := Refine(h, p, Config{Engine: eng, Backtrack: true}, rng)
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

func TestBacktrackFindsOptimum(t *testing.T) {
	h := twoClusters(t, 8)
	found := false
	for seed := int64(0); seed < 10; seed++ {
		_, res, err := Partition(h, nil, Config{Backtrack: true}, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		if res.Cut == 1 {
			found = true
		}
	}
	if !found {
		t.Error("backtracking FM never found the optimum")
	}
}

func TestBacktrackTriesFewerOrEqualBadMoves(t *testing.T) {
	// With backtracking, gains-consistency must hold after mid-pass
	// refreshes: run the white-box invariant under Backtrack.
	rng := rand.New(rand.NewSource(51))
	h := randomH(rng, 60, 130, 5)
	p := hypergraph.RandomPartition(h, 2, 0.1, rng)
	cfg, _ := Config{Backtrack: true}.Normalize()
	r := newRefiner(h, p, cfg, rng)
	r.countPins()
	d := cfg.passes(h.NumCells(), r.maxDeg)
	improved, _, _ := d.Pass(r)
	if improved < 0 {
		t.Error("negative pass gain")
	}
	// Gains of free cells must match recomputation after the pass.
	for u := int32(0); int(u) < h.NumCells(); u++ {
		if r.locked[u] {
			continue
		}
		if r.gain[u] != r.computeGain(u) {
			// After final rollback gains may be stale by design; only
			// check that a refresh restores consistency.
			r.refreshGains()
			if r.gain[u] != r.computeGain(u) {
				t.Fatalf("cell %d stale after refresh", u)
			}
			break
		}
	}
}

func TestBacktrackWithLookaheadCLIP(t *testing.T) {
	// The paper's CD-LA3 configuration: CLIP + backtrack + LA3.
	rng := rand.New(rand.NewSource(52))
	h := randomH(rng, 80, 160, 4)
	p, res, err := Partition(h, nil, Config{Engine: EngineCLIP, Backtrack: true, Lookahead: 3}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cut != p.Cut(h) {
		t.Error("cut mismatch")
	}
}

func TestBacktrackRejectedForPROP(t *testing.T) {
	if _, err := (Config{Engine: EnginePROP, Backtrack: true}).Normalize(); err == nil {
		t.Error("PROP+Backtrack accepted")
	}
}
