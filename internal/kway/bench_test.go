package kway

import (
	"math/rand"
	"testing"

	"mlpart/internal/fm"
	"mlpart/internal/hypergraph"
	"mlpart/internal/netgen"
)

// BenchmarkRefine times one flat k-way FM refinement under sum of
// degrees, K = 4, from a fixed random partition of a 3k-cell netgen
// circuit (the size of mlbench's quad-par circuits), on a warm
// Workspace. Profile the engine with
//
//	go test ./internal/kway -run '^$' -bench Refine -cpuprofile cpu.out
func BenchmarkRefine(b *testing.B) {
	c, err := netgen.Generate(netgen.Spec{Name: "bench", Cells: 3000, Nets: 3200, Pins: 10500, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	h := c.H
	cfg := Config{K: 4, Engine: fm.EngineFM, Objective: SumOfDegrees, WS: &Workspace{}}
	init := hypergraph.RandomPartition(h, cfg.K, 0.1, rand.New(rand.NewSource(2)))
	p := init.Clone()
	var res Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(p.Part, init.Part)
		if res, err = Refine(h, p, cfg, rand.New(rand.NewSource(3))); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Moves), "moves/op")
}
