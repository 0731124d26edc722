package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"testing"
	"time"

	"mlpart"
)

// tiny shrinks a workload to its first eight circuits at a sixteenth of
// their sizes and a one-op-per-circuit cycle; everything else runs the
// real code paths.
func tiny(w workload) workload {
	sizes := make([]circuitSize, 8)
	for i, s := range w.sizes[:len(sizes)] {
		sizes[i] = circuitSize{s.cells / 16, s.nets / 16, s.pins / 16}
	}
	w.sizes, w.cycle = sizes, len(sizes)
	return w
}

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestWorkloadsReportBenchmarkMetrics runs every workload untraced and
// traced at a tiny size and requires exactly the metrics BENCHMARK.json
// names, with their units, and no failed output check — the traced run
// fails any op whose replay differs from the entry point.
func TestWorkloadsReportBenchmarkMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range workloads() {
		have = append(have, w.name)
	}
	if !equalSorted(names, have) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark defines %v", names, have)
	}
	want := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range bf.EndToEnd {
		want[false][m.Name] = m.Unit
	}
	for _, m := range bf.PerLayer {
		want[true][m.Name] = m.Unit
	}

	for _, w := range workloads() {
		for _, trace := range []bool{false, true} {
			var log bytes.Buffer
			cfg := config{seed: 1, trace: trace, workdir: t.TempDir()}
			rep, err := runWorkload(tiny(w), cfg, &log)
			if err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", w.name, trace, err, log.String())
			}
			if !rep.correct() || rep.failed != 0 {
				t.Errorf("%s trace=%v: %d of %d ops failed their checks\n%s", w.name, trace, rep.failed, rep.attempted, log.String())
			}
			if len(rep.metrics) != len(want[trace]) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w.name, trace, len(rep.metrics), len(want[trace]))
			}
			for name, unit := range want[trace] {
				if m, ok := rep.metrics[name]; !ok || m.Unit != unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %q", w.name, trace, name, m, unit)
				}
			}
			var out bytes.Buffer
			if err := rep.write(&out); err != nil {
				t.Fatal(err)
			}
			if res, err := lastResult(out.Bytes()); err != nil || res.Attempted != rep.attempted {
				t.Errorf("%s trace=%v: result line %+v, %v", w.name, trace, res, err)
			}
		}
	}
}

func equalSorted(a, b []string) bool {
	a, b = slices.Clone(a), slices.Clone(b)
	slices.Sort(a)
	slices.Sort(b)
	return slices.Equal(a, b)
}

// TestReplayMatchesEntryPoint pins the replay to the entry points for
// both block counts, serial and with the intra-run pool.
func TestReplayMatchesEntryPoint(t *testing.T) {
	c, err := mlpart.GenerateCircuit(mlpart.CircuitSpec{Name: "replay", Cells: 900, Nets: 1000, Pins: 3300, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{2, 4} {
		for _, intra := range []int{0, 2} {
			o := op{k: k, opt: mlpart.Options{Seed: 11, Parallelism: 1, IntraParallelism: intra}, repeatOf: -1}
			want, _, err := runOp(c.H, o, nil)
			if err != nil {
				t.Fatal(err)
			}
			tr := &tracer{t0: time.Now()}
			got, err := replay(tr, "op", -1, c.H, o)
			if err != nil {
				t.Fatal(err)
			}
			if err := samePartition("replay", want, got); err != nil {
				t.Errorf("k=%d intra=%d: %v", k, intra, err)
			}
			if len(tr.spans) == 0 {
				t.Errorf("k=%d intra=%d: replay recorded no spans", k, intra)
			}
		}
	}
}

// TestPercentileMatchesPython pins percentile's quartiles to
// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
func TestPercentileMatchesPython(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	for i, want := range []float64{2.75, 5.5, 8.25} {
		if got := percentile(xs, float64(i+1)/4); got != want {
			t.Errorf("percentile(%v) = %v, want %v", float64(i+1)/4, got, want)
		}
	}
}
