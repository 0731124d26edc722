package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mlpart/internal/audit"
	"mlpart/internal/hypergraph"
	"mlpart/internal/kway"
)

func TestQuadrisectValidAndBalanced(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := randomH(rng, 150+rng.Intn(150), 250+rng.Intn(200), 5)
		p, res, err := Quadrisect(h, QuadConfig{}, rng)
		if err != nil {
			return false
		}
		if p.Validate(h.NumCells()) != nil || p.K != 4 {
			return false
		}
		if res.CutNets != p.Cut(h) || res.SumDegrees != p.SumOfDegrees(h) {
			return false
		}
		return p.IsBalanced(h, hypergraph.Balance(h, 4, 0.1))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

func TestQuadrisectFindsFourClusters(t *testing.T) {
	// 4 dense groups with a ring of 4 bridges; optimum 4-way cut = 4.
	rng := rand.New(rand.NewSource(2))
	b := hypergraph.NewBuilder(160)
	for g := 0; g < 4; g++ {
		base := g * 40
		for i := 0; i < 150; i++ {
			b.AddNet(base+rng.Intn(40), base+rng.Intn(40))
		}
	}
	for g := 0; g < 4; g++ {
		b.AddNet(g*40, ((g+1)%4)*40)
	}
	h := b.MustBuild()
	best := 1 << 30
	for seed := int64(0); seed < 5; seed++ {
		_, res, err := Quadrisect(h, QuadConfig{}, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		if res.CutNets < best {
			best = res.CutNets
		}
	}
	if best > 6 {
		t.Errorf("best quadrisection cut %d, want ≤ 6 (optimum 4)", best)
	}
}

func TestQuadrisectPreassignedPads(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	h := randomH(rng, 200, 400, 4)
	fixed := make([]bool, 200)
	pre := make([]int32, 200)
	for v := 0; v < 16; v++ {
		fixed[v] = true
		pre[v] = int32(v % 4)
	}
	p, _, err := Quadrisect(h, QuadConfig{Fixed: fixed, Preassign: pre}, rng)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 16; v++ {
		if p.Part[v] != pre[v] {
			t.Errorf("pad %d ended in block %d, pre-assigned %d", v, p.Part[v], pre[v])
		}
	}
}

func TestQuadrisectNetCutObjective(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	h := randomH(rng, 180, 300, 4)
	p, res, err := Quadrisect(h, QuadConfig{Refine: kway.Config{Objective: kway.NetCut}}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.CutNets != p.Cut(h) {
		t.Error("cut mismatch")
	}
}

func TestQuadrisectConfigErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	h := randomH(rng, 20, 30, 4)
	if _, _, err := Quadrisect(h, QuadConfig{Fixed: make([]bool, 20)}, rng); err == nil {
		t.Error("Fixed without Preassign must error")
	}
	if _, _, err := Quadrisect(h, QuadConfig{Threshold: 1}, rng); err == nil {
		t.Error("bad threshold must error")
	}
	// A negative cap would silently disable coarsening; Config rejects
	// it with the same message.
	if _, err := (QuadConfig{MaxLevels: -1}).Normalize(); err == nil || err.Error() != "core: MaxLevels -1 < 1" {
		t.Errorf("negative MaxLevels: got %v, want core: MaxLevels -1 < 1", err)
	}
	fixed := make([]bool, 20)
	pre := make([]int32, 20)
	fixed[0], pre[0] = true, 9
	if _, _, err := Quadrisect(h, QuadConfig{Fixed: fixed, Preassign: pre}, rng); err == nil {
		t.Error("out-of-range preassign must error")
	}
	if _, _, err := Quadrisect(h, QuadConfig{Fixed: make([]bool, 3), Preassign: make([]int32, 3)}, rng); err == nil {
		t.Error("length mismatch must error")
	}
	bad := QuadConfig{Refine: kway.Config{Fixed: make([]bool, 20)}}
	if _, _, err := Quadrisect(h, bad, rng); err == nil {
		t.Error("Refine.Fixed must be rejected")
	}
}

func TestQuadrisectLevelsRecorded(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	h := clusteredH(rng, 20, 30) // 600 cells, T=100 → ≥2 levels
	_, res, err := Quadrisect(h, QuadConfig{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.Levels < 2 {
		t.Errorf("Levels = %d, want ≥ 2 for 600 cells at T=100", res.Levels)
	}
	if res.CoarsestCells > 100 {
		t.Errorf("CoarsestCells = %d > threshold", res.CoarsestCells)
	}
}

func TestRecursiveBisectValid(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	h := randomH(rng, 200, 350, 4)
	for _, k := range []int{2, 4, 8} {
		p, err := RecursiveBisect(h, k, Config{}, rng)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if p.K != k {
			t.Errorf("K = %d, want %d", p.K, k)
		}
		if err := p.Validate(200); err != nil {
			t.Errorf("k=%d: %v", k, err)
		}
		// Area balance: each block within a loose band (recursive
		// bisection compounds tolerance, so allow 2r per level).
		areas := p.BlockAreas(h)
		for bIdx, a := range areas {
			lo := h.TotalArea()/int64(k) - h.TotalArea()/int64(k)/2
			hi := h.TotalArea()/int64(k) + h.TotalArea()/int64(k)/2
			if a < lo || a > hi {
				t.Errorf("k=%d block %d area %d outside [%d,%d]", k, bIdx, a, lo, hi)
			}
		}
	}
}

func TestRecursiveBisectErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	h := randomH(rng, 20, 30, 3)
	for _, k := range []int{0, 1, 3, 6} {
		if _, err := RecursiveBisect(h, k, Config{}, rng); err == nil {
			t.Errorf("k=%d accepted", k)
		}
	}
	if _, err := RecursiveBisect(h, 4, Config{Ratio: 7}, rng); err == nil {
		t.Error("bad config accepted")
	}
}

func TestDirectVsRecursiveQuadrisection(t *testing.T) {
	// Recursive ML bisection often yields lower k-way cuts than
	// direct k-way FM (the hMETIS-era observation); the paper uses
	// direct quadrisection because placement needs the simultaneous
	// 4-way geometry, not because it wins on cut. Assert both
	// approaches are sane and within 2x of each other, and record
	// the comparison.
	h := clusteredH(rand.New(rand.NewSource(32)), 16, 30) // 480 cells
	var direct, recursive int
	for seed := int64(0); seed < 4; seed++ {
		_, dres, err := Quadrisect(h, QuadConfig{}, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		direct += dres.CutNets
		rp, err := RecursiveBisect(h, 4, Config{}, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		recursive += rp.Cut(h)
	}
	t.Logf("direct quadrisection total %d vs recursive bisection total %d", direct, recursive)
	if direct > 2*recursive || recursive > 2*direct {
		t.Errorf("approaches diverge beyond 2x: direct %d, recursive %d", direct, recursive)
	}
}

// TestKwayLevelAuditChecksObjectives: a level audit cross-checks the
// engine's reported cut and sum of degrees when the engine ran, so a
// result off by one in either fails with an *audit.Error, and the
// degraded path (engine did not run) is not held to them.
func TestKwayLevelAuditChecksObjectives(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := randomH(rng, 120, 200, 5)
	cfg, err := QuadConfig{}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	eng := kwayLevels{cfg: cfg.Refine}
	l := &level{h: h}
	p, r, err := eng.start(l, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.audit(l, p, r, true); err != nil {
		t.Fatalf("audit of the engine's own result: %v", err)
	}
	for _, tc := range []struct {
		name string
		r    kway.Result
	}{
		{"cut+1", kway.Result{CutNets: r.CutNets + 1, SumDegrees: r.SumDegrees}},
		{"sumdeg-1", kway.Result{CutNets: r.CutNets, SumDegrees: r.SumDegrees - 1}},
	} {
		err := eng.audit(l, p, tc.r, true)
		if _, ok := err.(*audit.Error); !ok {
			t.Errorf("%s: audit returned %v, want an *audit.Error", tc.name, err)
		}
		if err := eng.audit(l, p, tc.r, false); err != nil {
			t.Errorf("%s: audit without an engine run: %v", tc.name, err)
		}
	}
}
