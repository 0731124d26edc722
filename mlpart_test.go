package mlpart

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

func TestPublicBipartition(t *testing.T) {
	b := NewBuilder(40)
	for g := 0; g < 2; g++ {
		base := g * 20
		for i := 0; i < 19; i++ {
			b.AddNet(base+i, base+i+1)
			b.AddNet(base+i, base+(i+7)%20)
		}
	}
	b.AddNet(0, 20)
	h, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p, info, err := Bipartition(h, Options{Seed: 3, Starts: 4})
	if err != nil {
		t.Fatal(err)
	}
	if info.Cut != p.Cut(h) {
		t.Errorf("info.Cut %d != measured %d", info.Cut, p.Cut(h))
	}
	if info.Starts != 4 {
		t.Errorf("Starts = %d", info.Starts)
	}
	if !p.IsBalanced(h, Balance(h, 2, 0.1)) {
		t.Error("unbalanced")
	}
}

func TestPublicQuadrisect(t *testing.T) {
	c, err := GenerateCircuit(CircuitSpec{Name: "q", Cells: 300, Nets: 400, Pins: 1300, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	p, info, err := Quadrisect(c.H, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if p.K != 4 {
		t.Errorf("K = %d, want 4", p.K)
	}
	if info.Cut != p.Cut(c.H) || info.SumDegrees != p.SumOfDegrees(c.H) {
		t.Error("info mismatch")
	}
}

func TestPublicDeterminism(t *testing.T) {
	c, err := GenerateCircuit(CircuitSpec{Name: "d", Cells: 200, Nets: 260, Pins: 840, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	p1, i1, err := Bipartition(c.H, Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	p2, i2, err := Bipartition(c.H, Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if i1.Cut != i2.Cut {
		t.Fatalf("same seed, different cuts: %d vs %d", i1.Cut, i2.Cut)
	}
	for v := range p1.Part {
		if p1.Part[v] != p2.Part[v] {
			t.Fatal("same seed, different partitions")
		}
	}
}

func TestPublicEngines(t *testing.T) {
	c, err := GenerateCircuit(CircuitSpec{Name: "e", Cells: 150, Nets: 200, Pins: 640, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range []struct {
		name string
		e    FMConfig
	}{{"fm", FMConfig{Engine: EngineFM}}, {"clip", FMConfig{Engine: EngineCLIP}}} {
		_, info, err := Bipartition(c.H, Options{Engine: eng.e.Engine, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", eng.name, err)
		}
		if info.Cut < 0 {
			t.Fatalf("%s: bad cut", eng.name)
		}
	}
}

func TestPublicHGRRoundTrip(t *testing.T) {
	h, err := NewBuilder(4).AddNet(0, 1, 2).AddNet(2, 3).Build()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteHGR(&buf, h); err != nil {
		t.Fatal(err)
	}
	g, err := ReadHGR(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumCells() != 4 || g.NumNets() != 2 {
		t.Errorf("round trip: %v", g)
	}
}

func TestPublicPartitionIO(t *testing.T) {
	p := &Partition{Part: []int32{0, 1, 1, 0}, K: 2}
	var buf bytes.Buffer
	if err := WritePartition(&buf, p); err != nil {
		t.Fatal(err)
	}
	q, err := ReadPartition(&buf, 4)
	if err != nil {
		t.Fatal(err)
	}
	if q.K != 2 || q.Part[1] != 1 {
		t.Error("partition IO mismatch")
	}
}

func TestBenchmarkSpecs(t *testing.T) {
	specs := BenchmarkSpecs()
	if len(specs) != 23 {
		t.Errorf("suite = %d, want 23", len(specs))
	}
}

func TestOptionsErrors(t *testing.T) {
	h, _ := NewBuilder(4).AddNet(0, 1).Build()
	if _, _, err := Bipartition(h, Options{Starts: -1}); err == nil {
		t.Error("bad starts accepted")
	}
	if _, _, err := Quadrisect(h, Options{Starts: -1}); err == nil {
		t.Error("bad starts accepted")
	}
	if _, _, err := Bipartition(h, Options{MatchingRatio: 3}); err == nil {
		t.Error("bad ratio accepted")
	}
}

// TestValidateBoundsStarts pins the Starts bound: Validate accepts
// MaxStarts and refuses one more for both k, and an entry point
// refuses it before sizing any per-start state, even under a done
// context.
func TestValidateBoundsStarts(t *testing.T) {
	for _, k := range []int{2, 4} {
		if err := (Options{Starts: MaxStarts}).Validate(k); err != nil {
			t.Errorf("k=%d: Starts = MaxStarts refused: %v", k, err)
		}
		if err := (Options{Starts: MaxStarts + 1}).Validate(k); err == nil || !strings.Contains(err.Error(), "starts") {
			t.Errorf("k=%d: Starts = MaxStarts+1: error %v, want one naming starts", k, err)
		}
	}
	if _, err := ParseOptionsJSON([]byte(`{"starts": 100000000}`)); err == nil {
		t.Error("options JSON with starts 1e8 decoded")
	}
	h, _ := NewBuilder(4).AddNet(0, 1).Build()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p, info, err := BipartitionCtx(ctx, h, Options{Starts: MaxStarts + 1, Parallelism: 1})
	if err == nil || p != nil || info.StartReports != nil {
		t.Errorf("entry point ran %d starts, partition %v, error %v; want only an error", len(info.StartReports), p != nil, err)
	}
}

func TestPublicWeightedNets(t *testing.T) {
	// Weighted nets through the public facade: fmt-1 file round trip
	// and weighted partitioning.
	h, err := NewBuilder(4).
		AddWeightedNet(10, 1, 2).
		AddNet(0, 1).
		AddNet(2, 3).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteHGR(&buf, h); err != nil {
		t.Fatal(err)
	}
	g, err := ReadHGR(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g.NetWeight(0) != 10 {
		t.Errorf("weight lost: %d", g.NetWeight(0))
	}
	p, res, err := FMBipartition(g, FMConfig{Tolerance: 0.5}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cut != p.WeightedCut(g) {
		t.Errorf("weighted cut mismatch: %d vs %d", res.Cut, p.WeightedCut(g))
	}
}

func TestPublicMeshAPI(t *testing.T) {
	h, err := GenerateMesh(MeshSpec{Width: 6, Height: 5})
	if err != nil {
		t.Fatal(err)
	}
	if h.NumCells() != 30 {
		t.Errorf("cells = %d", h.NumCells())
	}
	if MeshOptimalCut(MeshSpec{Width: 6, Height: 5}) != 5 {
		t.Error("optimal cut wrong")
	}
}
