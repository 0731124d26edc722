package mlpart

// One testing.B benchmark per paper table and figure, plus the design
// ablations from DESIGN.md. Each benchmark regenerates its experiment
// at the tiny scale (2 circuits, 2 runs) so `go test -bench=.`
// exercises every harness end to end in seconds; run
// cmd/experiments with -scale medium/full for paper-protocol numbers.

import (
	"math/rand"
	"testing"

	"mlpart/internal/coarsen"
	"mlpart/internal/expt"
	"mlpart/internal/hypergraph"
	"mlpart/internal/netgen"
)

// hierarchyOneLevel runs one Match+Induce coarsening step.
func hierarchyOneLevel(c *Circuit, rng *rand.Rand) (*Hypergraph, *Clustering, error) {
	cl, err := coarsen.Match(c.H, coarsen.Config{Ratio: 1}, rng)
	if err != nil {
		return nil, nil, err
	}
	coarse, err := hypergraph.InduceInto(c.H, cl, nil, &hypergraph.Hypergraph{})
	if err != nil {
		return nil, nil, err
	}
	return coarse, cl, nil
}

func benchOpts() expt.Options {
	return expt.Options{
		Scale:    netgen.ScaleTiny,
		Runs:     2,
		Seed:     1997,
		Workers:  1,
		Circuits: []string{"balu", "primary1"},
	}
}

// benchExperiment runs a registered experiment once per iteration and
// reports the average cut of the first numeric column as a metric.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := expt.Lookup(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	opts := benchOpts()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, err := e.Run(opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(t.Rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkTable1Generate(b *testing.B)      { benchExperiment(b, "table1") }
func BenchmarkTable2TieBreaking(b *testing.B)   { benchExperiment(b, "table2") }
func BenchmarkTable3FMvsCLIP(b *testing.B)      { benchExperiment(b, "table3") }
func BenchmarkTable4ML(b *testing.B)            { benchExperiment(b, "table4") }
func BenchmarkTable5MLFRatio(b *testing.B)      { benchExperiment(b, "table5") }
func BenchmarkTable6MLCRatio(b *testing.B)      { benchExperiment(b, "table6") }
func BenchmarkTable7Comparison(b *testing.B)    { benchExperiment(b, "table7") }
func BenchmarkTable8CPU(b *testing.B)           { benchExperiment(b, "table8") }
func BenchmarkTable9Quadrisection(b *testing.B) { benchExperiment(b, "table9") }
func BenchmarkFigure4RatioSweep(b *testing.B)   { benchExperiment(b, "fig4") }
func BenchmarkAblationBucketOrder(b *testing.B) { benchExperiment(b, "ablation-lifo") }
func BenchmarkAblationLookahead(b *testing.B)   { benchExperiment(b, "ablation-lookahead") }
func BenchmarkAblationBoundary(b *testing.B)    { benchExperiment(b, "ablation-boundary") }
func BenchmarkAblationCoarsestStarts(b *testing.B) {
	benchExperiment(b, "ablation-starts")
}
func BenchmarkAblationTwoPhase(b *testing.B)  { benchExperiment(b, "ablation-twophase") }
func BenchmarkAblationBaselines(b *testing.B) { benchExperiment(b, "ablation-baselines") }
func BenchmarkPlacementHPWL(b *testing.B)     { benchExperiment(b, "placement-hpwl") }
func BenchmarkAblationRecursive(b *testing.B) { benchExperiment(b, "ablation-recursive") }

func BenchmarkGFM2k(b *testing.B) {
	c := benchCircuit(b, 2000, 2200, 7300)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := GFMBipartition(c.H, GFMConfig{}, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPROPPass2k(b *testing.B) {
	c := benchCircuit(b, 2000, 2200, 7300)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := FMBipartition(c.H, FMConfig{Engine: EnginePROP}, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSpectral2k(b *testing.B) {
	c := benchCircuit(b, 2000, 2200, 7300)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := SpectralBipartition(c.H, SpectralConfig{}, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTopDownPlace2k(b *testing.B) {
	c := benchCircuit(b, 2000, 2200, 7300)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Place(c.H, nil, nil, nil, PlacerConfig{}, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// Component micro-benchmarks: the primitives whose speed the paper's
// CPU columns depend on.

func benchCircuit(b *testing.B, cells, nets, pins int) *Circuit {
	b.Helper()
	c, err := GenerateCircuit(CircuitSpec{Name: "bench", Cells: cells, Nets: nets, Pins: pins, Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	return c
}

func BenchmarkFMPass2k(b *testing.B) {
	c := benchCircuit(b, 2000, 2200, 7300)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := FMBipartition(c.H, FMConfig{}, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCLIPPass2k(b *testing.B) {
	c := benchCircuit(b, 2000, 2200, 7300)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := FMBipartition(c.H, FMConfig{Engine: EngineCLIP}, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMLBipartition2k(b *testing.B) {
	c := benchCircuit(b, 2000, 2200, 7300)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Bipartition(c.H, Options{Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVCycleMedium is the allocation-regression benchmark of the
// per-level inner loops: iterated multilevel refinement on the medium
// netgen instance re-runs Match, Induce, Project and the FM engine at
// every level of every cycle, so allocs/op here measures exactly the
// scratch memory the workspace layer is meant to eliminate. Run with
// -benchmem; cmd/benchrun gates the same loops end to end.
func BenchmarkVCycleMedium(b *testing.B) {
	c := benchCircuit(b, 10000, 10500, 34000)
	p, _, err := Bipartition(c.H, Options{Seed: 1997})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := VCycle(c.H, p, 2, MLConfig{}, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMLBipartition2kTelemetryOff/On quantify the telemetry
// layer's cost: Off is the production path (nil collector, one pointer
// check per site) and must sit within noise of BenchmarkMLBipartition2k;
// On shows the armed-collector overhead.

func BenchmarkMLBipartition2kTelemetryOff(b *testing.B) {
	c := benchCircuit(b, 2000, 2200, 7300)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Bipartition(c.H, Options{Seed: int64(i), Telemetry: nil}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMLBipartition2kTelemetryOn(b *testing.B) {
	c := benchCircuit(b, 2000, 2200, 7300)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tel := NewTelemetry()
		if _, _, err := Bipartition(c.H, Options{Seed: int64(i), Telemetry: tel}); err != nil {
			b.Fatal(err)
		}
		if tel.Report() == nil {
			b.Fatal("nil report")
		}
	}
}

func BenchmarkMLQuadrisect2k(b *testing.B) {
	c := benchCircuit(b, 2000, 2200, 7300)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Quadrisect(c.H, Options{Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGordianQuadrisect2k(b *testing.B) {
	c := benchCircuit(b, 2000, 2200, 7300)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := GordianQuadrisect(c.H, c.Pads, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGenerate10k(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := GenerateCircuit(CircuitSpec{
			Name: "g", Cells: 10000, Nets: 10500, Pins: 34000, Seed: int64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInduce(b *testing.B) {
	// Coarsening throughput: one Match+Induce level on a 10k circuit.
	c := benchCircuit(b, 10000, 10500, 34000)
	rng := rand.New(rand.NewSource(1))
	hs, _, err := hierarchyOneLevel(c, rng)
	if err != nil {
		b.Fatal(err)
	}
	_ = hs
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := hierarchyOneLevel(c, rand.New(rand.NewSource(int64(i)))); err != nil {
			b.Fatal(err)
		}
	}
}
