package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"mlpart/internal/coarsen"
	"mlpart/internal/hypergraph"
	"mlpart/internal/netgen"
	"mlpart/internal/telemetry"
)

func TestStallFractionNormalize(t *testing.T) {
	c, err := Config{}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	q, err := QuadConfig{}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if c.StallFraction != 0.9 || q.StallFraction != 0.9 {
		t.Errorf("default stall fractions %v and %v, want 0.9", c.StallFraction, q.StallFraction)
	}
	for _, f := range []float64{math.NaN(), -0.5, -math.SmallestNonzeroFloat64, 1.01, math.Inf(1)} {
		if _, err := (Config{StallFraction: f}).Normalize(); err == nil {
			t.Errorf("Config accepted stall fraction %v", f)
		}
		if _, err := (QuadConfig{StallFraction: f}).Normalize(); err == nil {
			t.Errorf("QuadConfig accepted stall fraction %v", f)
		}
		if _, err := (levelConfig{stall: f}).normalize(35); err == nil {
			t.Errorf("levelConfig accepted stall fraction %v", f)
		}
	}
}

// stopReason runs one bipartition with telemetry and returns why its
// coarsening stopped, with the result.
func stopReason(t *testing.T, ctx context.Context, h *hypergraph.Hypergraph, cfg Config) (string, Result) {
	t.Helper()
	tel := telemetry.New()
	cfg.Telemetry = tel
	_, res, err := BipartitionCtx(ctx, h, cfg, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	return tel.TakeStart(0, "ok", res.Cut, 1).CoarsenStop, res
}

func TestCoarsenStopReasons(t *testing.T) {
	circuit := netgen.MustGenerate(netgen.Spec{Name: "stops", Cells: 3000, Nets: 3200, Pins: 10500, Seed: 21}).H
	netless := hypergraph.NewBuilder(200).MustBuild()
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name string
		ctx  context.Context
		h    *hypergraph.Hypergraph
		cfg  Config
		want string
	}{
		{"threshold", context.Background(), circuit, Config{Ratio: 0.5, Threshold: 1500}, telemetry.CoarsenStopThreshold},
		{"stalled", context.Background(), circuit, Config{Ratio: 0.5}, telemetry.CoarsenStopStalled},
		{"no-progress", context.Background(), circuit, Config{Ratio: 0.5, StallFraction: 1}, telemetry.CoarsenStopNoProgress},
		{"netless", context.Background(), netless, Config{}, telemetry.CoarsenStopNoProgress},
		{"max-levels", context.Background(), circuit, Config{Ratio: 0.5, MaxLevels: 2}, telemetry.CoarsenStopMaxLevels},
		{"cancelled", cancelled, circuit, Config{Ratio: 0.5}, telemetry.CoarsenStopCancelled},
	} {
		got, res := stopReason(t, tc.ctx, tc.h, tc.cfg)
		if got != tc.want {
			t.Errorf("%s: coarsening stopped with %q after %d levels, want %q", tc.name, got, res.Levels, tc.want)
		}
	}
}

// TestStallRuleLowRatioReachesThreshold: at R = 0.05 every level keeps
// 97.5% of its cells, more than f, but each sweep stops at R, so
// coarsening still runs down to T.
func TestStallRuleLowRatioReachesThreshold(t *testing.T) {
	h := netgen.MustGenerate(netgen.Spec{Name: "low-ratio", Cells: 300, Nets: 330, Pins: 1050, Seed: 22}).H
	reason, res := stopReason(t, context.Background(), h, Config{Ratio: 0.05, MaxLevels: 500})
	if reason != telemetry.CoarsenStopThreshold || res.CoarsestCells > 35 {
		t.Errorf("R = 0.05 stopped with %q at %d cells after %d levels, want the threshold (35)", reason, res.CoarsestCells, res.Levels)
	}
}

// TestStallRulePadHeavyQuadrisection: 60% of the cells are pads,
// which never merge, so every sweep runs out before R = 1. The stall
// fraction counts movable cells only: coarsening keeps levels that
// keep more than f of all their cells but not of their movable ones,
// where a fraction over all cells would have stopped.
func TestStallRulePadHeavyQuadrisection(t *testing.T) {
	h := netgen.MustGenerate(netgen.Spec{Name: "pads", Cells: 3000, Nets: 3200, Pins: 10500, Seed: 23}).H
	n := h.NumCells()
	fixed, pre := make([]bool, n), make([]int32, n)
	pads := 0
	for v := 0; v < n; v++ {
		if v%5 < 3 {
			fixed[v], pre[v] = true, int32(v%4)
			pads++
		}
	}
	tel := telemetry.New()
	cfg := QuadConfig{Fixed: fixed, Preassign: pre, Telemetry: tel}
	_, res, err := QuadrisectCtx(context.Background(), h, cfg, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	const f = coarsen.DefaultStallFraction
	padHeavy := 0
	for i, l := range tel.TakeStart(0, "ok", 0, 1).Coarsening {
		fine := res.LevelCells[i]
		if float64(l.Cells) > f*float64(fine) {
			padHeavy++
		}
		if movable := fine - pads; float64(movable-l.MatchedPairs) > f*float64(movable) {
			t.Errorf("level %d kept %d of %d movable cells, more than f = %v", i, movable-l.MatchedPairs, movable, f)
		}
	}
	if padHeavy == 0 {
		t.Errorf("no level kept more than f of all its cells (levels %v): the test no longer tells the two fractions apart", res.LevelCells)
	}
	if movable := res.LevelCells[len(res.LevelCells)-1] - pads; movable > (n-pads)/4 {
		t.Errorf("the movable cells coarsened only from %d to %d", n-pads, movable)
	}
}

// TestStalledLevelNeverInduced: the Match that stalls is dropped
// before induce, and before it takes a store slot, so a fresh store
// ends with exactly one slot per coarse level built, each holding its
// level.
func TestStalledLevelNeverInduced(t *testing.T) {
	h := netgen.MustGenerate(netgen.Spec{Name: "store", Cells: 3000, Nets: 3200, Pins: 10500, Seed: 24}).H
	s := NewScratch()
	reason, res := stopReason(t, context.Background(), h, Config{Ratio: 0.5, Scratch: s})
	if reason != telemetry.CoarsenStopStalled {
		t.Fatalf("coarsening stopped with %q, want a stall", reason)
	}
	if got := len(s.ws.levels.slots); got != res.Levels {
		t.Fatalf("the store holds %d slots after a %d-level run, want one per coarse level", got, res.Levels)
	}
	for i, sl := range s.ws.levels.slots {
		if sl.h.NumCells() != res.LevelCells[i+1] {
			t.Errorf("slot %d holds a %d-cell level, want level %d's %d cells", i, sl.h.NumCells(), i+1, res.LevelCells[i+1])
		}
	}
}

// stallOffDigests are FNV-64a digests of the partitions that the
// pipeline produced before the stall rule existed, on the instances
// and seeds of the golden-cut test. At StallFraction 1 every entry
// point must still produce them byte for byte.
var stallOffDigests = map[string]string{
	"smoke.hgr/bipartition":       "6f9d735b02cf8017",
	"smoke.hgr/quadrisect":        "7917ec58e9fbd3f2",
	"smoke.hgr/quadrisect-pads":   "e5a3f434875439a1",
	"smoke.hgr/vcycle":            "6f9d735b02cf8017",
	"smoke.hgr/recursive-bisect":  "dd6f9b71cfa12eb1",
	"smoke.hgr/bipartition-merge": "6bd001301529a017",
	"golden-a/bipartition":        "56ccb7150508ee06",
	"golden-a/quadrisect":         "3d7ed5fd0ee13421",
	"golden-a/quadrisect-pads":    "aa1882e9e0a77dc1",
	"golden-a/vcycle":             "0b19e011222ba6e7",
	"golden-a/recursive-bisect":   "ac2746478a991950",
	"golden-a/bipartition-merge":  "7040a195b6f58426",
	"golden-b/bipartition":        "298ebe7fe920dfc7",
	"golden-b/quadrisect":         "ba7a000d03d2f062",
	"golden-b/quadrisect-pads":    "937a4120225b1761",
	"golden-b/vcycle":             "9dde8c9034576637",
	"golden-b/recursive-bisect":   "be288fcf975dc421",
	"golden-b/bipartition-merge":  "cca27c7b856c3487",
	"golden-c/bipartition":        "927db59651e209c6",
	"golden-c/quadrisect":         "cf22839e1b533be0",
	"golden-c/quadrisect-pads":    "046db5c2919ed252",
	"golden-c/vcycle":             "79ad421f4832a977",
	"golden-c/recursive-bisect":   "9361c22a45ab7673",
	"golden-c/bipartition-merge":  "1aa57bae1210a097",
}

func TestStallFractionOneMatchesPaperPipeline(t *testing.T) {
	type instance struct {
		name string
		h    *hypergraph.Hypergraph
	}
	f, err := os.Open(filepath.Join("..", "..", "cmd", "mlpart", "testdata", "smoke.hgr"))
	if err != nil {
		t.Fatal(err)
	}
	smoke, err := hypergraph.ReadHGR(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	instances := []instance{{"smoke.hgr", smoke}}
	for _, spec := range []netgen.Spec{
		{Name: "golden-a", Cells: 800, Nets: 860, Pins: 2700, Seed: 101},
		{Name: "golden-b", Cells: 1200, Nets: 1300, Pins: 4200, Seed: 102},
		{Name: "golden-c", Cells: 1600, Nets: 1700, Pins: 5600, Seed: 103},
	} {
		instances = append(instances, instance{spec.Name, netgen.MustGenerate(spec).H})
	}
	digest := func(p *hypergraph.Partition) string {
		d := fnv.New64a()
		binary.Write(d, binary.LittleEndian, int32(p.K))
		binary.Write(d, binary.LittleEndian, p.Part)
		return fmt.Sprintf("%016x", d.Sum64())
	}
	ctx := context.Background()
	rng := func() *rand.Rand { return rand.New(rand.NewSource(7)) }
	for _, in := range instances {
		h := in.h
		fixed, pre := make([]bool, h.NumCells()), make([]int32, h.NumCells())
		for v := 0; v < h.NumCells(); v += 10 {
			fixed[v], pre[v] = true, int32(v%4)
		}
		bisect, _, err := BipartitionCtx(ctx, h, Config{Ratio: 0.5, StallFraction: 1}, rng())
		if err != nil {
			t.Fatal(err)
		}
		runs := map[string]func() (*hypergraph.Partition, error){
			"bipartition": func() (*hypergraph.Partition, error) { return bisect, nil },
			"quadrisect": func() (*hypergraph.Partition, error) {
				p, _, err := QuadrisectCtx(ctx, h, QuadConfig{StallFraction: 1}, rng())
				return p, err
			},
			"quadrisect-pads": func() (*hypergraph.Partition, error) {
				p, _, err := QuadrisectCtx(ctx, h, QuadConfig{StallFraction: 1, Fixed: fixed, Preassign: pre}, rng())
				return p, err
			},
			"vcycle": func() (*hypergraph.Partition, error) {
				p, _, err := VCycleCtx(ctx, h, bisect, 3, Config{StallFraction: 1}, rng())
				return p, err
			},
			"recursive-bisect": func() (*hypergraph.Partition, error) {
				return RecursiveBisectCtx(ctx, h, 4, Config{StallFraction: 1}, rng())
			},
			"bipartition-merge": func() (*hypergraph.Partition, error) {
				p, _, err := BipartitionCtx(ctx, h, Config{MergeParallelNets: true, StallFraction: 1}, rng())
				return p, err
			},
		}
		for _, alg := range []string{"bipartition", "quadrisect", "quadrisect-pads", "vcycle", "recursive-bisect", "bipartition-merge"} {
			p, err := runs[alg]()
			if err != nil {
				t.Fatal(err)
			}
			key := in.name + "/" + alg
			if got, want := digest(p), stallOffDigests[key]; got != want {
				t.Errorf("%s: partition digest %s, want %s", key, got, want)
			}
		}
	}
}
