package mlpart

// Golden cut-value regression: pinned instances (the checked-in
// smoke.hgr plus three pinned netgen circuits) through
// Bipartition/Quadrisect/RecursiveBisect, a V-cycle, quadrisection
// with fixed pads and bipartition with parallel-net merging at fixed
// seeds must keep producing the exact cuts recorded in
// testdata/golden_cuts.json — and produce them bit-identically at
// Parallelism 1 and 4. Any change to RNG consumption anywhere
// in the pipeline (the classic symptom of a workspace that leaks state
// between levels or starts) trips this test. Regenerate deliberately with:
//
//	go test -run Golden -update-golden .

import (
	"context"
	"encoding/json"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"mlpart/internal/core"
	"mlpart/internal/oracle"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_cuts.json from the current implementation")

const goldenSchema = "mlpart-golden-cuts/1"

type goldenEntry struct {
	Instance  string `json:"instance"`
	Algorithm string `json:"algorithm"`
	Cut       int    `json:"cut"`
}

type goldenFile struct {
	Schema  string        `json:"schema"`
	Entries []goldenEntry `json:"entries"`
}

// goldenInstances returns the pinned instances, name → hypergraph.
func goldenInstances(t *testing.T) []struct {
	name string
	h    *Hypergraph
} {
	t.Helper()
	f, err := os.Open(filepath.Join("cmd", "mlpart", "testdata", "smoke.hgr"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	smoke, err := ReadHGR(f)
	if err != nil {
		t.Fatal(err)
	}
	out := []struct {
		name string
		h    *Hypergraph
	}{{name: "smoke.hgr", h: smoke}}
	for _, spec := range []CircuitSpec{
		{Name: "golden-a", Cells: 800, Nets: 860, Pins: 2700, Seed: 101},
		{Name: "golden-b", Cells: 1200, Nets: 1300, Pins: 4200, Seed: 102},
		{Name: "golden-c", Cells: 1600, Nets: 1700, Pins: 5600, Seed: 103},
	} {
		c, err := GenerateCircuit(spec)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, struct {
			name string
			h    *Hypergraph
		}{name: spec.Name, h: c.H})
	}
	return out
}

// goldenRun executes one algorithm on one instance at Parallelism 1
// and 4; it fails unless both partitions are bit-identical (the worker
// count is an execution detail and never changes a result).
func goldenRun(t *testing.T, algorithm string, h *Hypergraph) int {
	t.Helper()
	runAt := func(par int) (*Partition, int) {
		opt := Options{Seed: 7, Starts: 2, Parallelism: par}
		switch algorithm {
		case "bipartition":
			p, info, err := Bipartition(h, opt)
			if err != nil {
				t.Fatal(err)
			}
			return p, info.Cut
		case "quadrisect":
			p, info, err := Quadrisect(h, opt)
			if err != nil {
				t.Fatal(err)
			}
			return p, info.Cut
		case "recursive-bisect":
			p, err := RecursiveBisect(h, 4, MLConfig{}, 7)
			if err != nil {
				t.Fatal(err)
			}
			return p, oracle.Cut(h, p)
		case "vcycle":
			p, _, err := Bipartition(h, opt)
			if err != nil {
				t.Fatal(err)
			}
			pv, _, err := VCycle(h, p, 3, MLConfig{}, 7)
			if err != nil {
				t.Fatal(err)
			}
			return pv, oracle.Cut(h, pv)
		case "quadrisect-pads":
			// Every 10th cell is a pad pre-assigned to block v%4.
			fixed := make([]bool, h.NumCells())
			pre := make([]int32, h.NumCells())
			for v := 0; v < h.NumCells(); v += 10 {
				fixed[v], pre[v] = true, int32(v%4)
			}
			cfg := QuadConfig{Fixed: fixed, Preassign: pre}
			p, res, err := core.QuadrisectCtx(context.Background(), h, cfg, rand.New(rand.NewSource(7)))
			if err != nil {
				t.Fatal(err)
			}
			return p, res.CutNets
		case "bipartition-merge":
			cfg := MLConfig{MergeParallelNets: true}
			p, res, err := core.BipartitionCtx(context.Background(), h, cfg, rand.New(rand.NewSource(7)))
			if err != nil {
				t.Fatal(err)
			}
			return p, res.Cut
		}
		t.Fatalf("unknown algorithm %q", algorithm)
		return nil, 0
	}
	p1, cut1 := runAt(1)
	p4, cut4 := runAt(4)
	if cut1 != cut4 {
		t.Fatalf("%s: cut %d at Parallelism 1, %d at Parallelism 4", algorithm, cut1, cut4)
	}
	if !slices.Equal(p1.Part, p4.Part) {
		t.Fatalf("%s: partitions diverge across Parallelism", algorithm)
	}
	if want := oracle.Cut(h, p1); cut1 != want {
		t.Fatalf("%s: reported cut %d, oracle recount %d", algorithm, cut1, want)
	}
	return cut1
}

func TestGoldenCuts(t *testing.T) {
	var got []goldenEntry
	for _, inst := range goldenInstances(t) {
		for _, alg := range []string{"bipartition", "quadrisect", "recursive-bisect", "vcycle", "quadrisect-pads", "bipartition-merge"} {
			got = append(got, goldenEntry{
				Instance:  inst.name,
				Algorithm: alg,
				Cut:       goldenRun(t, alg, inst.h),
			})
		}
	}

	path := filepath.Join("testdata", "golden_cuts.json")
	if *updateGolden {
		data, err := json.MarshalIndent(goldenFile{Schema: goldenSchema, Entries: got}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d entries", path, len(got))
		return
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update-golden): %v", err)
	}
	var want goldenFile
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if want.Schema != goldenSchema {
		t.Fatalf("golden schema %q, want %q", want.Schema, goldenSchema)
	}
	if len(want.Entries) != len(got) {
		t.Fatalf("golden file has %d entries, test produced %d", len(want.Entries), len(got))
	}
	for i, w := range want.Entries {
		g := got[i]
		if g != w {
			t.Errorf("entry %d: got %+v, golden %+v", i, g, w)
		}
	}
}
