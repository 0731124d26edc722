package expt

import (
	"fmt"
	"sort"

	"mlpart/internal/core"
	"mlpart/internal/fm"
	"mlpart/internal/gainbucket"
)

// Experiment is a registered table/figure generator.
type Experiment struct {
	ID    string
	Paper string // which paper table/figure it reproduces
	Run   func(Options) (*Table, error)
}

// Experiments returns the registry of all reproducible tables,
// figures and ablations, in presentation order.
func Experiments() []Experiment {
	return []Experiment{
		{"table1", "Table I — benchmark circuit characteristics", Table1},
		{"table2", "Table II — FM with LIFO/FIFO/random buckets", Table2},
		{"table3", "Table III — FM vs CLIP", Table3},
		{"table4", "Table IV — CLIP vs ML_F vs ML_C (R=1)", Table4},
		{"table5", "Table V — ML_F matching-ratio sweep", Table5},
		{"table6", "Table VI — ML_C matching-ratio sweep", Table6},
		{"table7", "Table VII — ML_C vs other bipartitioners", Table7},
		{"table8", "Table VIII — CPU comparison", Table8},
		{"table9", "Table IX — 4-way partitioning comparisons", Table9},
		{"fig4", "Figure 4 — matching ratio vs average cut", Figure4},
		{"ablation-lifo", "§II.A — bucket order inside ML_C", AblationBucketOrder},
		{"ablation-lookahead", "§II.A/§V — lookahead levels", AblationLookahead},
		{"ablation-boundary", "§V — boundary FM & early exit", AblationBoundary},
		{"ablation-starts", "§V — multi-start at coarsest level", AblationCoarsestStarts},
		{"ablation-twophase", "§II.C — flat vs two-phase vs multilevel", AblationTwoPhase},
		{"ablation-recursive", "§III.C — direct quadrisection vs recursive bisection", AblationRecursive},
		{"ablation-mergenets", "Def. 1 — parallel nets vs merged weighted nets", AblationMergeNets},
		{"ablation-vcycle", "iterated multilevel (V-cycles) on top of ML_C", AblationVCycle},
		{"ablation-baselines", "§II — every bipartitioning engine side by side", AblationBaselines},
		{"placement-hpwl", "[24] — quadrisection-driven placement vs GORDIAN (HPWL)", PlacementHPWL},
		{"stage-profile", "telemetry — ML_C per-stage work and wall-clock split", StageProfile},
		{"repro-check", "scorecard — programmatic check of the paper's shape claims", ReproCheck},
	}
}

// Lookup finds an experiment by id.
func Lookup(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// Table1 reports the size characteristics of the generated suite in
// the format of Table I, with the published targets alongside.
func Table1(opts Options) (*Table, error) {
	opts, err := opts.Normalize()
	if err != nil {
		return nil, err
	}
	circuits, err := opts.circuits()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "table1",
		Title:   "benchmark circuit characteristics (generated vs Table-I targets)",
		Columns: []string{"Test Case", "Modules", "Nets", "Pins", "tgtModules", "tgtNets", "tgtPins"},
		Notes: []string{
			"targets are the published Table-I sizes scaled to " + string(opts.Scale),
		},
	}
	for _, c := range circuits {
		s := c.H.ComputeStats()
		t.AddRow(c.Spec.Name, fmtD(s.Cells), fmtD(s.Nets), fmtD(s.Pins),
			fmtD(c.Spec.Cells), fmtD(c.Spec.Nets), fmtD(c.Spec.Pins))
	}
	return t, nil
}

// Table2 reproduces the §II.A tie-breaking study: min/avg/std cut of
// N runs of FM under LIFO, FIFO and random bucket organizations.
func Table2(opts Options) (*Table, error) {
	opts, err := opts.Normalize()
	if err != nil {
		return nil, err
	}
	circuits, err := opts.circuits()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "table2",
		Title: fmt.Sprintf("min/avg/std cut for %d runs of FM with LIFO, FIFO and RND buckets", opts.Runs),
		Columns: []string{"Test Case",
			"MIN-LIFO", "MIN-FIFO", "MIN-RND",
			"AVG-LIFO", "AVG-FIFO", "AVG-RND",
			"STD-LIFO", "STD-FIFO", "STD-RND"},
	}
	orders := []gainbucket.Order{gainbucket.LIFO, gainbucket.FIFO, gainbucket.Random}
	for _, c := range circuits {
		var rs [3]RunStats
		for i, ord := range orders {
			rs[i] = RunMany(opts.Runs, opts.Workers, opts.Seed+int64(i), algoFMOrder(c.H, ord))
			if rs[i].Err != nil {
				return nil, rs[i].Err
			}
		}
		t.AddRow(c.Spec.Name,
			fmtD(rs[0].Min()), fmtD(rs[1].Min()), fmtD(rs[2].Min()),
			fmtF(rs[0].Mean()), fmtF(rs[1].Mean()), fmtF(rs[2].Mean()),
			fmtF(rs[0].Std()), fmtF(rs[1].Std()), fmtF(rs[2].Std()))
	}
	return t, nil
}

// Table3 reproduces the FM vs CLIP comparison: min/avg/std/CPU for N
// runs of each.
func Table3(opts Options) (*Table, error) {
	opts, err := opts.Normalize()
	if err != nil {
		return nil, err
	}
	circuits, err := opts.circuits()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "table3",
		Title: fmt.Sprintf("min/avg/std/CPU for %d runs of FM and CLIP", opts.Runs),
		Columns: []string{"Test Case",
			"MIN-FM", "MIN-CLIP", "AVG-FM", "AVG-CLIP",
			"STD-FM", "STD-CLIP", "CPU-FM", "CPU-CLIP"},
	}
	for _, c := range circuits {
		rf := RunMany(opts.Runs, opts.Workers, opts.Seed, algoFM(c.H, fm.Config{}))
		rc := RunMany(opts.Runs, opts.Workers, opts.Seed, algoCLIP(c.H))
		if rf.Err != nil {
			return nil, rf.Err
		}
		if rc.Err != nil {
			return nil, rc.Err
		}
		t.AddRow(c.Spec.Name,
			fmtD(rf.Min()), fmtD(rc.Min()), fmtF(rf.Mean()), fmtF(rc.Mean()),
			fmtF(rf.Std()), fmtF(rc.Std()),
			fmtSecs(rf.CPU.Seconds()), fmtSecs(rc.CPU.Seconds()))
	}
	return t, nil
}

// Table4 compares CLIP with ML_F and ML_C at R = 1 (T = 35).
func Table4(opts Options) (*Table, error) {
	opts, err := opts.Normalize()
	if err != nil {
		return nil, err
	}
	circuits, err := opts.circuits()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "table4",
		Title: fmt.Sprintf("min/avg/CPU for %d runs of CLIP, ML_F and ML_C (R=1)", opts.Runs),
		Columns: []string{"Test Case",
			"MIN-CLIP", "MIN-MLF", "MIN-MLC",
			"AVG-CLIP", "AVG-MLF", "AVG-MLC",
			"CPU-CLIP", "CPU-MLF", "CPU-MLC"},
	}
	for _, c := range circuits {
		rc := RunMany(opts.Runs, opts.Workers, opts.Seed, algoCLIP(c.H))
		rf := RunMany(opts.Runs, opts.Workers, opts.Seed, algoML(c.H, fm.EngineFM, 1.0))
		rm := RunMany(opts.Runs, opts.Workers, opts.Seed, algoML(c.H, fm.EngineCLIP, 1.0))
		for _, r := range []RunStats{rc, rf, rm} {
			if r.Err != nil {
				return nil, r.Err
			}
		}
		t.AddRow(c.Spec.Name,
			fmtD(rc.Min()), fmtD(rf.Min()), fmtD(rm.Min()),
			fmtF(rc.Mean()), fmtF(rf.Mean()), fmtF(rm.Mean()),
			fmtSecs(rc.CPU.Seconds()), fmtSecs(rf.CPU.Seconds()), fmtSecs(rm.CPU.Seconds()))
	}
	return t, nil
}

// ratioTable implements Tables V and VI: an R sweep for one engine.
func ratioTable(opts Options, id string, engine fm.Engine) (*Table, error) {
	opts, err := opts.Normalize()
	if err != nil {
		return nil, err
	}
	circuits, err := opts.circuits()
	if err != nil {
		return nil, err
	}
	name := engine.String()
	ratios := []float64{1.0, 0.5, 0.33}
	t := &Table{
		ID:    id,
		Title: fmt.Sprintf("min/avg/CPU for %d runs of ML_%s with R ∈ {1.0, 0.5, 0.33}", opts.Runs, name[:1]),
		Columns: []string{"Test Case",
			"MIN-1.0", "MIN-0.5", "MIN-0.33",
			"AVG-1.0", "AVG-0.5", "AVG-0.33",
			"CPU-1.0", "CPU-0.5", "CPU-0.33"},
	}
	for _, c := range circuits {
		var rs [3]RunStats
		for i, r := range ratios {
			rs[i] = RunMany(opts.Runs, opts.Workers, opts.Seed, algoML(c.H, engine, r))
			if rs[i].Err != nil {
				return nil, rs[i].Err
			}
		}
		t.AddRow(c.Spec.Name,
			fmtD(rs[0].Min()), fmtD(rs[1].Min()), fmtD(rs[2].Min()),
			fmtF(rs[0].Mean()), fmtF(rs[1].Mean()), fmtF(rs[2].Mean()),
			fmtSecs(rs[0].CPU.Seconds()), fmtSecs(rs[1].CPU.Seconds()), fmtSecs(rs[2].CPU.Seconds()))
	}
	return t, nil
}

// Table5 sweeps the matching ratio for ML_F.
func Table5(opts Options) (*Table, error) { return ratioTable(opts, "table5", fm.EngineFM) }

// Table6 sweeps the matching ratio for ML_C.
func Table6(opts Options) (*Table, error) { return ratioTable(opts, "table6", fm.EngineCLIP) }

// Table7 compares ML_C (N runs and N/10 runs, R = 0.5) against the
// live baselines we rebuilt (FM, CLIP, LSMC) and against the
// literature values quoted by the paper for the remaining nine
// algorithms (on the original circuits — reference only).
func Table7(opts Options) (*Table, error) {
	opts, err := opts.Normalize()
	if err != nil {
		return nil, err
	}
	circuits, err := opts.circuits()
	if err != nil {
		return nil, err
	}
	fewRuns := opts.Runs / 10
	if fewRuns < 1 {
		fewRuns = 1
	}
	t := &Table{
		ID: "table7",
		Title: fmt.Sprintf("min cut: ML_C (R=0.5, %d and %d runs) vs live FM/CLIP/LSMC and literature values",
			opts.Runs, fewRuns),
		Columns: []string{"Test Case",
			fmt.Sprintf("MLC(%d)", opts.Runs), fmt.Sprintf("MLC(%d)", fewRuns),
			"FM", "CLIP", "LSMC",
			"ref:GMet", "ref:HB", "ref:PB", "ref:GFM", "ref:CL-LA3", "ref:CD-LA3", "ref:CL-PR", "ref:LSMC"},
		Notes: []string{
			"ref:* columns are the paper's Table VII values measured on the ORIGINAL circuits;",
			"they are printed for shape comparison only and are not comparable in absolute terms",
			"to the synthetic-suite columns on their left.",
		},
	}
	for _, c := range circuits {
		mlAll := RunMany(opts.Runs, opts.Workers, opts.Seed, algoML(c.H, fm.EngineCLIP, 0.5))
		mlFew := RunMany(fewRuns, opts.Workers, opts.Seed, algoML(c.H, fm.EngineCLIP, 0.5))
		rFM := RunMany(opts.Runs, opts.Workers, opts.Seed, algoFM(c.H, fm.Config{}))
		rCL := RunMany(opts.Runs, opts.Workers, opts.Seed, algoCLIP(c.H))
		// One LSMC solution built from Runs descents (equal budget).
		rLS := RunMany(1, 1, opts.Seed, algoLSMC(c.H, fm.EngineFM, opts.Runs))
		for _, r := range []RunStats{mlAll, mlFew, rFM, rCL, rLS} {
			if r.Err != nil {
				return nil, r.Err
			}
		}
		ref, ok := PaperTable7[c.Spec.Name]
		if !ok {
			ref = Table7Ref{-1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1}
		}
		t.AddRow(c.Spec.Name,
			fmtD(mlAll.Min()), fmtD(mlFew.Min()),
			fmtD(rFM.Min()), fmtD(rCL.Min()), fmtD(rLS.Min()),
			fmtRef(ref.GMet), fmtRef(ref.HB), fmtRef(ref.PB), fmtRef(ref.GFM),
			fmtRef(ref.CLLA3), fmtRef(ref.CDLA3), fmtRef(ref.CLPR), fmtRef(ref.LSMC))
	}
	return t, nil
}

// Table8 compares total CPU time: 10%-run ML_C vs the live baselines,
// with the paper's reported runtimes as reference.
func Table8(opts Options) (*Table, error) {
	opts, err := opts.Normalize()
	if err != nil {
		return nil, err
	}
	circuits, err := opts.circuits()
	if err != nil {
		return nil, err
	}
	fewRuns := opts.Runs / 10
	if fewRuns < 1 {
		fewRuns = 1
	}
	t := &Table{
		ID:    "table8",
		Title: fmt.Sprintf("CPU seconds: ML_C (%d runs) vs FM/CLIP (%d runs) and LSMC (%d descents)", fewRuns, opts.Runs, opts.Runs),
		Columns: []string{"Test Case",
			fmt.Sprintf("MLC(%d)", fewRuns), "FM", "CLIP", "LSMC", "ref:MLC(10)", "ref:GMet", "ref:PB"},
		Notes: []string{"ref:* are Sun Sparc 5 seconds from the paper's Table VIII (original circuits)."},
	}
	for _, c := range circuits {
		ml := RunMany(fewRuns, opts.Workers, opts.Seed, algoML(c.H, fm.EngineCLIP, 0.5))
		rFM := RunMany(opts.Runs, opts.Workers, opts.Seed, algoFM(c.H, fm.Config{}))
		rCL := RunMany(opts.Runs, opts.Workers, opts.Seed, algoCLIP(c.H))
		rLS := RunMany(1, 1, opts.Seed, algoLSMC(c.H, fm.EngineFM, opts.Runs))
		for _, r := range []RunStats{ml, rFM, rCL, rLS} {
			if r.Err != nil {
				return nil, r.Err
			}
		}
		ref, ok := PaperTable8[c.Spec.Name]
		if !ok {
			ref = Table8Ref{-1, -1, -1}
		}
		t.AddRow(c.Spec.Name,
			fmtSecs(ml.CPU.Seconds()), fmtSecs(rFM.CPU.Seconds()),
			fmtSecs(rCL.CPU.Seconds()), fmtSecs(rLS.CPU.Seconds()),
			fmtRef(ref.MLC), fmtRef(ref.GMet), fmtRef(ref.PB))
	}
	return t, nil
}

// Table9 reproduces the 4-way comparisons: ML_F quadrisection
// (R=1.0, T=100, sum-of-degrees) vs the GORDIAN-style analytic
// quadrisection and flat 4-way FM, CLIP and LSMC variants.
func Table9(opts Options) (*Table, error) {
	opts, err := opts.Normalize()
	if err != nil {
		return nil, err
	}
	circuits, err := opts.circuits()
	if err != nil {
		return nil, err
	}
	lsmcDescents := opts.Runs
	if lsmcDescents > 20 {
		lsmcDescents = 20 // k-way descents are expensive; cap budget
	}
	t := &Table{
		ID:    "table9",
		Title: fmt.Sprintf("4-way cut nets (min over %d runs; MLF also shows avg)", opts.Runs),
		Columns: []string{"Test Case",
			"MLF", "MLF-avg", "GORDIAN", "FM", "CLIP", "LSMC_F", "LSMC_C", "ref:MLF", "ref:GORDIAN"},
		Notes: []string{"GORDIAN column is our quadratic-placement reimplementation (see DESIGN.md)."},
	}
	for _, c := range circuits {
		ml := RunMany(opts.Runs, opts.Workers, opts.Seed, algoMLQuad(c.H, fm.EngineFM))
		gd := RunMany(minInt(opts.Runs, 5), opts.Workers, opts.Seed, algoGordian(c))
		f4 := RunMany(opts.Runs, opts.Workers, opts.Seed, algoKway4(c.H, fm.EngineFM))
		c4 := RunMany(opts.Runs, opts.Workers, opts.Seed, algoKway4(c.H, fm.EngineCLIP))
		lf := RunMany(1, 1, opts.Seed, algoLSMC4(c.H, fm.EngineFM, lsmcDescents))
		lc := RunMany(1, 1, opts.Seed, algoLSMC4(c.H, fm.EngineCLIP, lsmcDescents))
		for _, r := range []RunStats{ml, gd, f4, c4, lf, lc} {
			if r.Err != nil {
				return nil, r.Err
			}
		}
		ref, ok := PaperTable9[c.Spec.Name]
		if !ok {
			ref = Table9Ref{-1, -1}
		}
		t.AddRow(c.Spec.Name,
			fmtD(ml.Min()), fmtF(ml.Mean()), fmtD(gd.Min()),
			fmtD(f4.Min()), fmtD(c4.Min()), fmtD(lf.Min()), fmtD(lc.Min()),
			fmtRef(ref.MLF), fmtRef(ref.GORDIAN))
	}
	return t, nil
}

// Figure4 sweeps the matching ratio R from 0.1 to 1.0 and reports the
// average ML_C cut, as in the paper's Fig. 4 (40 runs on the two
// largest circuits of the selected suite).
func Figure4(opts Options) (*Table, error) {
	opts, err := opts.Normalize()
	if err != nil {
		return nil, err
	}
	circuits, err := opts.circuits()
	if err != nil {
		return nil, err
	}
	// Two largest circuits by cell count.
	sort.Slice(circuits, func(i, j int) bool {
		return circuits[i].H.NumCells() > circuits[j].H.NumCells()
	})
	if len(circuits) > 2 {
		circuits = circuits[:2]
	}
	cols := []string{"R"}
	for _, c := range circuits {
		cols = append(cols, c.Spec.Name)
	}
	t := &Table{
		ID:      "fig4",
		Title:   fmt.Sprintf("average ML_C cut vs matching ratio R (%d runs per point)", opts.Runs),
		Columns: cols,
	}
	for r := 1; r <= 10; r++ {
		ratio := float64(r) / 10
		row := []string{fmt.Sprintf("%.1f", ratio)}
		for _, c := range circuits {
			rs := RunMany(opts.Runs, opts.Workers, opts.Seed, algoML(c.H, fm.EngineCLIP, ratio))
			if rs.Err != nil {
				return nil, rs.Err
			}
			row = append(row, fmtF(rs.Mean()))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// AblationBucketOrder reruns ML_C with each bucket organization — the
// §II.A study transplanted inside the multilevel loop.
func AblationBucketOrder(opts Options) (*Table, error) {
	opts, err := opts.Normalize()
	if err != nil {
		return nil, err
	}
	circuits, err := opts.circuits()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "ablation-lifo",
		Title:   fmt.Sprintf("ML_C average cut under LIFO/FIFO/RND buckets (%d runs)", opts.Runs),
		Columns: []string{"Test Case", "AVG-LIFO", "AVG-FIFO", "AVG-RND", "MIN-LIFO", "MIN-FIFO", "MIN-RND"},
	}
	orders := []gainbucket.Order{gainbucket.LIFO, gainbucket.FIFO, gainbucket.Random}
	for _, c := range circuits {
		var rs [3]RunStats
		for i, ord := range orders {
			cfg := core.Config{StallFraction: 1, Ratio: 0.5, Refine: fm.Config{Engine: fm.EngineCLIP, Order: ord}}
			rs[i] = RunMany(opts.Runs, opts.Workers, opts.Seed, algoMLOpts(c.H, cfg))
			if rs[i].Err != nil {
				return nil, rs[i].Err
			}
		}
		t.AddRow(c.Spec.Name,
			fmtF(rs[0].Mean()), fmtF(rs[1].Mean()), fmtF(rs[2].Mean()),
			fmtD(rs[0].Min()), fmtD(rs[1].Min()), fmtD(rs[2].Min()))
	}
	return t, nil
}

// AblationLookahead measures Krishnamurthy lookahead levels 0/2/3
// under both engines (flat, not multilevel — matching §II.A's setup).
func AblationLookahead(opts Options) (*Table, error) {
	opts, err := opts.Normalize()
	if err != nil {
		return nil, err
	}
	circuits, err := opts.circuits()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "ablation-lookahead",
		Title: fmt.Sprintf("average cut with lookahead levels (LA) for FM and CLIP (%d runs)", opts.Runs),
		Columns: []string{"Test Case",
			"FM-LA0", "FM-LA2", "FM-LA3", "CLIP-LA0", "CLIP-LA2", "CLIP-LA3"},
	}
	for _, c := range circuits {
		row := []string{c.Spec.Name}
		for _, eng := range []fm.Engine{fm.EngineFM, fm.EngineCLIP} {
			for _, la := range []int{0, 2, 3} {
				rs := RunMany(opts.Runs, opts.Workers, opts.Seed,
					algoFM(c.H, fm.Config{Engine: eng, Lookahead: la}))
				if rs.Err != nil {
					return nil, rs.Err
				}
				row = append(row, fmtF(rs.Mean()))
			}
		}
		t.AddRow(row...)
	}
	return t, nil
}

// AblationBoundary measures the §V speedup features: boundary
// initialization and early pass exit, in quality and CPU.
func AblationBoundary(opts Options) (*Table, error) {
	opts, err := opts.Normalize()
	if err != nil {
		return nil, err
	}
	circuits, err := opts.circuits()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "ablation-boundary",
		Title: fmt.Sprintf("ML_C with boundary FM / early exit: avg cut and CPU (%d runs)", opts.Runs),
		Columns: []string{"Test Case",
			"AVG-base", "AVG-bdry", "AVG-early", "AVG-both",
			"CPU-base", "CPU-bdry", "CPU-early", "CPU-both"},
	}
	variants := []fm.Config{
		{Engine: fm.EngineCLIP},
		{Engine: fm.EngineCLIP, Boundary: true},
		{Engine: fm.EngineCLIP, EarlyExit: true},
		{Engine: fm.EngineCLIP, Boundary: true, EarlyExit: true},
	}
	for _, c := range circuits {
		var rs [4]RunStats
		for i, v := range variants {
			cfg := core.Config{StallFraction: 1, Ratio: 0.5, Refine: v}
			rs[i] = RunMany(opts.Runs, opts.Workers, opts.Seed, algoMLOpts(c.H, cfg))
			if rs[i].Err != nil {
				return nil, rs[i].Err
			}
		}
		t.AddRow(c.Spec.Name,
			fmtF(rs[0].Mean()), fmtF(rs[1].Mean()), fmtF(rs[2].Mean()), fmtF(rs[3].Mean()),
			fmtSecs(rs[0].CPU.Seconds()), fmtSecs(rs[1].CPU.Seconds()),
			fmtSecs(rs[2].CPU.Seconds()), fmtSecs(rs[3].CPU.Seconds()))
	}
	return t, nil
}

// AblationCoarsestStarts measures multi-start partitioning of the
// coarsest netlist (§V future work).
func AblationCoarsestStarts(opts Options) (*Table, error) {
	opts, err := opts.Normalize()
	if err != nil {
		return nil, err
	}
	circuits, err := opts.circuits()
	if err != nil {
		return nil, err
	}
	starts := []int{1, 4, 16}
	t := &Table{
		ID:      "ablation-starts",
		Title:   fmt.Sprintf("ML_C average cut with 1/4/16 starts at the coarsest level (%d runs)", opts.Runs),
		Columns: []string{"Test Case", "AVG-1", "AVG-4", "AVG-16", "CPU-1", "CPU-4", "CPU-16"},
	}
	for _, c := range circuits {
		var rs [3]RunStats
		for i, s := range starts {
			cfg := core.Config{StallFraction: 1, Ratio: 0.5, CoarsestStarts: s, Refine: fm.Config{Engine: fm.EngineCLIP}}
			rs[i] = RunMany(opts.Runs, opts.Workers, opts.Seed, algoMLOpts(c.H, cfg))
			if rs[i].Err != nil {
				return nil, rs[i].Err
			}
		}
		t.AddRow(c.Spec.Name,
			fmtF(rs[0].Mean()), fmtF(rs[1].Mean()), fmtF(rs[2].Mean()),
			fmtSecs(rs[0].CPU.Seconds()), fmtSecs(rs[1].CPU.Seconds()), fmtSecs(rs[2].CPU.Seconds()))
	}
	return t, nil
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
