package coarsen

import (
	"math/rand"
	"slices"
	"testing"

	"mlpart/internal/hypergraph"
	"mlpart/internal/intrapar"
)

func sameClustering(a, b *hypergraph.Clustering) bool {
	if a.NumClusters != b.NumClusters || len(a.CellToCluster) != len(b.CellToCluster) {
		return false
	}
	for i := range a.CellToCluster {
		if a.CellToCluster[i] != b.CellToCluster[i] {
			return false
		}
	}
	return true
}

// referenceMatch is Fig. 3 written out directly: the same visit
// permutation (rand.Perm consumes the RNG exactly as Match does), the
// same ratio test and Stop cadence, and each partner picked by
// evaluating Conn over every eligible neighbor, ties to the lowest
// index. It shares no code with the sweep beyond Conn.
func referenceMatch(h *hypergraph.Hypergraph, cfg Config, rng *rand.Rand) *hypergraph.Clustering {
	cfg, err := cfg.Normalize()
	if err != nil {
		panic(err)
	}
	n := h.NumCells()
	cl := make([]int32, n)
	for v := range cl {
		cl[v] = -1
	}
	eligible := func(v, w int) bool {
		return w != v && cl[w] < 0 && (cfg.Exclude == nil || !cfg.Exclude[w]) &&
			(cfg.SameBlockOnly == nil || cfg.SameBlockOnly.Part[v] == cfg.SameBlockOnly.Part[w])
	}
	perm := rng.Perm(n)
	k, nMatch := int32(0), 0
	for j := 0; float64(nMatch)/float64(n) < cfg.Ratio && j < n; j++ {
		if j&255 == 0 && cfg.Stop != nil && cfg.Stop() {
			break
		}
		v := perm[j]
		if cl[v] >= 0 || (cfg.Exclude != nil && cfg.Exclude[v]) {
			continue
		}
		var cands []int
		for _, e := range h.Nets(v) {
			if size := h.NetSize(int(e)); size < 2 || size > cfg.MaxNetSize {
				continue
			}
			for _, w := range h.Pins(int(e)) {
				if eligible(v, int(w)) && !slices.Contains(cands, int(w)) {
					cands = append(cands, int(w))
				}
			}
		}
		slices.Sort(cands)
		best, bestConn := -1, 0.0
		for _, w := range cands {
			if cw := Conn(h, v, w, cfg.MaxNetSize); cw > bestConn {
				best, bestConn = w, cw
			}
		}
		cl[v] = k
		if best >= 0 {
			cl[best] = k
			nMatch += 2
		}
		k++
	}
	for v := range cl {
		if cl[v] < 0 {
			cl[v] = k
			k++
		}
	}
	return &hypergraph.Clustering{CellToCluster: cl, NumClusters: int(k)}
}

// TestMatchParIdenticalToSerial is the contract of the blocked sweep:
// for every configuration axis (ratio, exclusions, restricted
// coarsening, stop hooks) and matched RNG streams, the nil pool (one
// slot per score block) reproduces the Fig. 3 reference, and pools of
// 1, 2 and 8 workers (2 and 8 score 512-slot blocks speculatively)
// reproduce the nil pool bit for bit, consuming the same RNG draws.
func TestMatchParIdenticalToSerial(t *testing.T) {
	type variant struct {
		name string
		mk   func(h *hypergraph.Hypergraph, rng *rand.Rand) Config
	}
	variants := []variant{
		{"default", func(h *hypergraph.Hypergraph, rng *rand.Rand) Config { return Config{} }},
		{"ratio-0.4", func(h *hypergraph.Hypergraph, rng *rand.Rand) Config { return Config{Ratio: 0.4} }},
		{"exclude", func(h *hypergraph.Hypergraph, rng *rand.Rand) Config {
			ex := make([]bool, h.NumCells())
			for i := range ex {
				ex[i] = rng.Intn(5) == 0
			}
			return Config{Exclude: ex}
		}},
		{"same-block", func(h *hypergraph.Hypergraph, rng *rand.Rand) Config {
			return Config{SameBlockOnly: hypergraph.RandomPartition(h, 2, 0.1, rng)}
		}},
		{"stop-after-100", func(h *hypergraph.Hypergraph, rng *rand.Rand) Config {
			polls := 0
			return Config{Stop: func() bool { polls++; return polls > 100 }}
		}},
	}
	for seed := int64(1); seed <= 3; seed++ {
		setup := rand.New(rand.NewSource(seed))
		// Sizes straddle the 512-slot score block so multi-block sweeps
		// and the final partial block are both exercised.
		h := randomH(setup, 300+setup.Intn(1000), 600+setup.Intn(1500), 6)
		for _, vr := range variants {
			refRng := rand.New(rand.NewSource(seed))
			ref := referenceMatch(h, vr.mk(h, rand.New(rand.NewSource(seed+100))), refRng)
			serialRng := rand.New(rand.NewSource(seed))
			want, err := Match(h, vr.mk(h, rand.New(rand.NewSource(seed+100))), serialRng)
			if err != nil {
				t.Fatal(err)
			}
			if !sameClustering(ref, want) {
				t.Fatalf("seed %d %s: nil-pool clustering differs from the Fig. 3 reference", seed, vr.name)
			}
			wantNext := serialRng.Int63()
			if refNext := refRng.Int63(); refNext != wantNext {
				t.Fatalf("seed %d %s: nil-pool RNG stream diverged from the reference", seed, vr.name)
			}
			for _, workers := range []int{1, 2, 8} {
				pool := intrapar.New(workers)
				cfg := vr.mk(h, rand.New(rand.NewSource(seed+100)))
				cfg.Par = pool
				parRng := rand.New(rand.NewSource(seed))
				got, err := Match(h, cfg, parRng)
				pool.Close()
				if err != nil {
					t.Fatal(err)
				}
				if !sameClustering(want, got) {
					t.Fatalf("seed %d %s workers %d: clustering differs from the nil pool", seed, vr.name, workers)
				}
				if gotNext := parRng.Int63(); gotNext != wantNext {
					t.Fatalf("seed %d %s workers %d: RNG stream diverged", seed, vr.name, workers)
				}
			}
		}
	}
}

// TestMatchParWorkspaceReuse checks the parallel scratch's reuse
// invariant: a workspace carried across differently-sized parallel
// Match calls never changes results.
func TestMatchParWorkspaceReuse(t *testing.T) {
	setup := rand.New(rand.NewSource(7))
	big := randomH(setup, 900, 1400, 6)
	small := randomH(setup, 60, 100, 4)
	pool := intrapar.New(4)
	defer pool.Close()
	ws := &Workspace{}
	for i, h := range []*hypergraph.Hypergraph{big, small, big} {
		want, err := Match(h, Config{Par: pool}, rand.New(rand.NewSource(11)))
		if err != nil {
			t.Fatal(err)
		}
		got, err := Match(h, Config{Par: pool, WS: ws}, rand.New(rand.NewSource(11)))
		if err != nil {
			t.Fatal(err)
		}
		if !sameClustering(want, got) {
			t.Fatalf("run %d: workspace reuse changed the clustering", i)
		}
	}
}
