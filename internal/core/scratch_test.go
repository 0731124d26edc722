package core

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"mlpart/internal/hypergraph"
	"mlpart/internal/netgen"
)

// TestScratchDirtyStoreMatchesFresh runs a job sequence on one Scratch
// whose sizes go 8k → 1k → 3k → 8k cells, alternating k = 2 and k = 4,
// then pad-fixed quadrisections and V-cycles, each pair large before
// small. Every job therefore builds its hierarchy into store slots
// holding a different, mostly larger, hierarchy of an earlier job: its
// areas, CSR offsets, clusterings, pads and pushed-up solutions. Each
// result must equal the same job on a fresh bundle.
func TestScratchDirtyStoreMatchesFresh(t *testing.T) {
	circuit := func(cells int, seed int64) *hypergraph.Hypergraph {
		return netgen.MustGenerate(netgen.Spec{Name: "dirty", Cells: cells, Nets: cells + cells/16, Pins: 3 * cells, Seed: seed}).H
	}
	h8k, h1k, h3k := circuit(8000, 81), circuit(1000, 11), circuit(3000, 31)
	// pads fixes every seventh cell of h, in block v mod 4.
	pads := func(h *hypergraph.Hypergraph) QuadConfig {
		n := h.NumCells()
		fixed, pre := make([]bool, n), make([]int32, n)
		for v := 0; v < n; v += 7 {
			fixed[v], pre[v] = true, int32(v%4)
		}
		return QuadConfig{Fixed: fixed, Preassign: pre}
	}
	type outcome struct {
		p   *hypergraph.Partition
		res any
	}
	type job struct {
		name string
		run  func(s *Scratch, rng *rand.Rand) (outcome, error)
	}
	bisect := func(h *hypergraph.Hypergraph) func(*Scratch, *rand.Rand) (outcome, error) {
		return func(s *Scratch, rng *rand.Rand) (outcome, error) {
			p, res, err := BipartitionCtx(context.Background(), h, Config{Scratch: s}, rng)
			return outcome{p, res}, err
		}
	}
	quad := func(h *hypergraph.Hypergraph, cfg QuadConfig) func(*Scratch, *rand.Rand) (outcome, error) {
		return func(s *Scratch, rng *rand.Rand) (outcome, error) {
			cfg.Scratch = s
			p, res, err := QuadrisectCtx(context.Background(), h, cfg, rng)
			return outcome{p, res}, err
		}
	}
	vcycle := func(h *hypergraph.Hypergraph) func(*Scratch, *rand.Rand) (outcome, error) {
		return func(s *Scratch, rng *rand.Rand) (outcome, error) {
			start := hypergraph.RandomPartition(h, 2, 0.1, rng)
			p, cut, err := VCycleCtx(context.Background(), h, start, 3, Config{Ratio: 0.5, Scratch: s}, rng)
			return outcome{p, cut}, err
		}
	}
	jobs := []job{
		{"8k bipartition", bisect(h8k)},
		{"1k quadrisection", quad(h1k, QuadConfig{})},
		{"3k bipartition", bisect(h3k)},
		{"8k quadrisection", quad(h8k, QuadConfig{})},
		{"3k pad-fixed quadrisection", quad(h3k, pads(h3k))},
		{"1k pad-fixed quadrisection", quad(h1k, pads(h1k))},
		{"3k V-cycle", vcycle(h3k)},
		{"1k V-cycle", vcycle(h1k)},
	}
	s := NewScratch()
	for i, j := range jobs {
		seed := int64(100 + i)
		got, err := j.run(s, s.Rand(seed))
		if err != nil {
			t.Fatalf("%s on the shared Scratch: %v", j.name, err)
		}
		want, err := j.run(nil, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatalf("%s on a fresh bundle: %v", j.name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: the result on the shared Scratch differs from a fresh bundle's", j.name)
		}
	}
}
