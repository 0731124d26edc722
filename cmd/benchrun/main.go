// Command benchrun is the benchmark/regression harness: it runs a
// fixed set of netgen instances at pinned seeds through the public
// entry points, collects the best cut, the per-stage wall-clock
// profile (from the telemetry layer), and steady-state allocations
// per run, and emits a BENCH_<date>.json report (schema
// mlpart-bench/1). Against the checked-in bench_baseline.json it
// enforces the regression gate:
//
//   - cut and level counts must match the baseline exactly — the
//     pipeline is deterministic, so any drift is a real behavior
//     change, not noise;
//   - allocations and bytes allocated per op must each stay within
//     -tolerance (default +25%) of the baseline — the alloc-free
//     hot paths and the sized-once workspaces guard;
//   - wall-clock timings are recorded but never gated — they are
//     machine-dependent.
//
// Usage:
//
//	benchrun [-iters n] [-tolerance f] [-baseline path] [-out path]
//	benchrun -update        # rewrite bench_baseline.json too
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"mlpart"
)

const benchSchema = "mlpart-bench/1"

// stageNS is the per-stage wall-clock profile summed over all starts,
// in nanoseconds. Informational only: never part of the gate.
type stageNS struct {
	Coarsen   int64 `json:"coarsen_ns"`
	Refine    int64 `json:"refine_ns"`
	Project   int64 `json:"project_ns"`
	Rebalance int64 `json:"rebalance_ns"`
	Total     int64 `json:"total_ns"`
}

type benchEntry struct {
	Instance    string  `json:"instance"`
	Algorithm   string  `json:"algorithm"`
	Cut         int     `json:"cut"`
	Levels      int     `json:"levels"`
	AllocsPerOp uint64  `json:"allocs_per_op"`
	BytesPerOp  uint64  `json:"bytes_per_op"`
	StageNS     stageNS `json:"stage_ns"`
}

type benchFile struct {
	Schema  string       `json:"schema"`
	Date    string       `json:"date"`
	GoVers  string       `json:"go_version"`
	Entries []benchEntry `json:"entries"`
}

// benchCase is one pinned (instance, algorithm) pair.
type benchCase struct {
	spec      mlpart.CircuitSpec
	algorithm string
}

func benchCases() []benchCase {
	a := mlpart.CircuitSpec{Name: "bench-a", Cells: 1000, Nets: 1100, Pins: 3600, Seed: 201}
	b := mlpart.CircuitSpec{Name: "bench-b", Cells: 2000, Nets: 2100, Pins: 7000, Seed: 202}
	c := mlpart.CircuitSpec{Name: "bench-c", Cells: 3000, Nets: 3200, Pins: 10500, Seed: 203}
	// bench-m is the medium instance: the largest that keeps the smoke
	// gate fast.
	m := mlpart.CircuitSpec{Name: "bench-m", Cells: 16000, Nets: 17000, Pins: 56000, Seed: 204}
	return []benchCase{
		{spec: a, algorithm: "bipartition"},
		{spec: b, algorithm: "bipartition"},
		{spec: c, algorithm: "bipartition"},
		{spec: a, algorithm: "quadrisect"},
		{spec: b, algorithm: "quadrisect"},
		{spec: m, algorithm: "bipartition"},
	}
}

// runOnce executes the case's algorithm with an armed telemetry
// collector and returns the cut, level count, and stage profile.
func runOnce(bc benchCase, h *mlpart.Hypergraph, tel *mlpart.Telemetry) (int, int, error) {
	opt := mlpart.Options{Seed: 7, Starts: 2, Parallelism: 1, Telemetry: tel}
	var info mlpart.Info
	var err error
	switch bc.algorithm {
	case "bipartition":
		_, info, err = mlpart.Bipartition(h, opt)
	case "quadrisect":
		_, info, err = mlpart.Quadrisect(h, opt)
	default:
		return 0, 0, fmt.Errorf("unknown algorithm %q", bc.algorithm)
	}
	if err != nil {
		return 0, 0, err
	}
	return info.Cut, info.Levels, nil
}

// measure runs one case: a telemetric run for cut/levels/stage
// profile, then iters untimed runs bracketed by MemStats reads for
// steady-state allocations per op (telemetry stays disabled there so
// the collector's own record appends don't pollute the hot-path
// count).
func measure(bc benchCase, iters int) (benchEntry, error) {
	circ, err := mlpart.GenerateCircuit(bc.spec)
	if err != nil {
		return benchEntry{}, err
	}
	h := circ.H

	tel := mlpart.NewTelemetry()
	cut, levels, err := runOnce(bc, h, tel)
	if err != nil {
		return benchEntry{}, err
	}
	var prof stageNS
	for _, s := range tel.Report().PerStart {
		prof.Coarsen += s.Timings.CoarsenNS
		prof.Refine += s.Timings.RefineNS
		prof.Project += s.Timings.ProjectNS
		prof.Rebalance += s.Timings.RebalanceNS
		prof.Total += s.Timings.TotalNS
	}

	// Warm run, then measure. Parallelism is 1 and nothing else runs,
	// so the Mallocs delta is attributable to the pipeline.
	if _, _, err := runOnce(bc, h, nil); err != nil {
		return benchEntry{}, err
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < iters; i++ {
		if _, _, err := runOnce(bc, h, nil); err != nil {
			return benchEntry{}, err
		}
	}
	runtime.ReadMemStats(&after)

	return benchEntry{
		Instance:    bc.spec.Name,
		Algorithm:   bc.algorithm,
		Cut:         cut,
		Levels:      levels,
		AllocsPerOp: (after.Mallocs - before.Mallocs) / uint64(iters),
		BytesPerOp:  (after.TotalAlloc - before.TotalAlloc) / uint64(iters),
		StageNS:     prof,
	}, nil
}

// gate compares the fresh report against the baseline and returns the
// list of violations.
func gate(got, base *benchFile, tolerance float64) []string {
	var bad []string
	if base.Schema != benchSchema {
		return []string{fmt.Sprintf("baseline schema %q, want %q (regenerate with -update)", base.Schema, benchSchema)}
	}
	if len(base.Entries) != len(got.Entries) {
		return []string{fmt.Sprintf("baseline has %d entries, run produced %d (regenerate with -update)", len(base.Entries), len(got.Entries))}
	}
	for i, b := range base.Entries {
		g := got.Entries[i]
		id := g.Instance + "/" + g.Algorithm
		if g.Instance != b.Instance || g.Algorithm != b.Algorithm {
			bad = append(bad, fmt.Sprintf("entry %d: case %s, baseline %s/%s", i, id, b.Instance, b.Algorithm))
			continue
		}
		if g.Cut != b.Cut {
			bad = append(bad, fmt.Sprintf("%s: cut %d, baseline %d (determinism regression)", id, g.Cut, b.Cut))
		}
		if g.Levels != b.Levels {
			bad = append(bad, fmt.Sprintf("%s: %d levels, baseline %d", id, g.Levels, b.Levels))
		}
		// Small fixed slack absorbs runtime accounting jitter on tiny
		// counts; the multiplicative tolerance is the real gate.
		if limit := uint64(float64(b.AllocsPerOp)*(1+tolerance)) + 16; g.AllocsPerOp > limit {
			bad = append(bad, fmt.Sprintf("%s: %d allocs/op, baseline %d (limit %d at tolerance %.0f%%)",
				id, g.AllocsPerOp, b.AllocsPerOp, limit, tolerance*100))
		}
		if limit := uint64(float64(b.BytesPerOp)*(1+tolerance)) + 4<<10; g.BytesPerOp > limit {
			bad = append(bad, fmt.Sprintf("%s: %d B/op, baseline %d (limit %d at tolerance %.0f%%)",
				id, g.BytesPerOp, b.BytesPerOp, limit, tolerance*100))
		}
	}
	return bad
}

func run() error {
	iters := flag.Int("iters", 5, "measured runs per case for the allocation count")
	tolerance := flag.Float64("tolerance", 0.25, "allowed fractional allocs/op and B/op growth over the baseline")
	baselinePath := flag.String("baseline", "bench_baseline.json", "checked-in baseline to gate against")
	out := flag.String("out", "", "report path (default BENCH_<date>.json)")
	update := flag.Bool("update", false, "rewrite the baseline from this run instead of gating")
	flag.Parse()

	report := benchFile{
		Schema: benchSchema,
		Date:   time.Now().UTC().Format("2006-01-02"),
		GoVers: runtime.Version(),
	}
	for _, bc := range benchCases() {
		e, err := measure(bc, *iters)
		if err != nil {
			return fmt.Errorf("%s/%s: %w", bc.spec.Name, bc.algorithm, err)
		}
		fmt.Printf("%-8s %-12s cut=%-5d levels=%-3d allocs/op=%-7d B/op=%-9d coarsen=%.1fms refine=%.1fms project=%.2fms\n",
			e.Instance, e.Algorithm, e.Cut, e.Levels, e.AllocsPerOp, e.BytesPerOp,
			float64(e.StageNS.Coarsen)/1e6, float64(e.StageNS.Refine)/1e6, float64(e.StageNS.Project)/1e6)
		report.Entries = append(report.Entries, e)
	}
	path := *out
	if path == "" {
		path = "BENCH_" + report.Date + ".json"
	}
	data, err := json.MarshalIndent(&report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)

	if *update {
		if err := os.WriteFile(*baselinePath, data, 0o644); err != nil {
			return err
		}
		fmt.Printf("rewrote baseline %s\n", *baselinePath)
		return nil
	}

	baseData, err := os.ReadFile(*baselinePath)
	if err != nil {
		return fmt.Errorf("missing baseline (bootstrap with -update): %w", err)
	}
	var base benchFile
	if err := json.Unmarshal(baseData, &base); err != nil {
		return fmt.Errorf("baseline %s: %w", *baselinePath, err)
	}
	if bad := gate(&report, &base, *tolerance); len(bad) > 0 {
		for _, m := range bad {
			fmt.Fprintf(os.Stderr, "REGRESSION: %s\n", m)
		}
		return fmt.Errorf("%d benchmark regression(s) against %s", len(bad), *baselinePath)
	}
	fmt.Printf("gate passed against %s (%d cases, tolerance %.0f%%)\n", *baselinePath, len(report.Entries), *tolerance*100)
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchrun:", err)
		os.Exit(1)
	}
}
