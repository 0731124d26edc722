package expt

import (
	"fmt"
	"math/rand"

	"mlpart/internal/core"
	"mlpart/internal/fm"
	"mlpart/internal/gfm"
	"mlpart/internal/hypergraph"
	"mlpart/internal/placement"
	"mlpart/internal/placer"
	"mlpart/internal/spectral"
)

// Additional experiments covering the baselines and applications the
// paper references but does not tabulate directly: the PROP and
// CL-PR engines of [13]/[14], spectral (EIG) bipartitioning [18],
// two-phase FM (§II.C), and the quadrisection-driven top-down placer
// of [24].

func algoPROP(h *hypergraph.Hypergraph, engine fm.Engine) Algo {
	return algoFM(h, fm.Config{Engine: engine})
}

func algoSpectral(h *hypergraph.Hypergraph, refine bool) Algo {
	cfg := spectral.Config{RefineFM: refine}
	return func(rng *rand.Rand) (int, error) {
		_, res, err := spectral.Bipartition(h, cfg, rng)
		return res.Cut, err
	}
}

func algoGFM(h *hypergraph.Hypergraph) Algo {
	return func(rng *rand.Rand) (int, error) {
		_, res, err := gfm.Bipartition(h, gfm.Config{}, rng)
		return res.Cut, err
	}
}

func algoTwoPhase(h *hypergraph.Hypergraph) Algo {
	return func(rng *rand.Rand) (int, error) {
		_, res, err := core.TwoPhase(h, core.Config{StallFraction: 1, Refine: fm.Config{Engine: fm.EngineCLIP}}, rng)
		return res.Cut, err
	}
}

// AblationBaselines lines up every bipartitioning engine in the
// repository on equal terms: flat FM/CLIP/PROP/CL-PR, spectral with
// and without FM refinement, two-phase FM, and full ML_C.
func AblationBaselines(opts Options) (*Table, error) {
	opts, err := opts.Normalize()
	if err != nil {
		return nil, err
	}
	circuits, err := opts.circuits()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "ablation-baselines",
		Title: fmt.Sprintf("average cut of every bipartitioning engine (%d runs)", opts.Runs),
		Columns: []string{"Test Case",
			"FM", "CLIP", "PROP", "CL-PR", "CD-LA3", "GFM", "EIG", "EIG+FM", "2phase", "ML_C"},
		Notes: []string{"EIG is deterministic up to the eigensolver start vector; variance is near zero."},
	}
	for _, c := range circuits {
		algos := []Algo{
			algoFM(c.H, fm.Config{}),
			algoCLIP(c.H),
			algoPROP(c.H, fm.EnginePROP),
			algoPROP(c.H, fm.EngineCLIPPROP),
			algoFM(c.H, fm.Config{Engine: fm.EngineCLIP, Backtrack: true, Lookahead: 3}),
			algoGFM(c.H),
			algoSpectral(c.H, false),
			algoSpectral(c.H, true),
			algoTwoPhase(c.H),
			algoML(c.H, fm.EngineCLIP, 0.5),
		}
		row := []string{c.Spec.Name}
		for _, a := range algos {
			rs := RunMany(opts.Runs, opts.Workers, opts.Seed, a)
			if rs.Err != nil {
				return nil, rs.Err
			}
			row = append(row, fmtF(rs.Mean()))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// PlacementHPWL compares the quadrisection-driven top-down placer
// (with and without terminal propagation) against the GORDIAN-style
// quadratic placement, in half-perimeter wirelength — the comparison
// [24] reports (≈14% savings vs GORDIAN-L on the original circuits).
func PlacementHPWL(opts Options) (*Table, error) {
	opts, err := opts.Normalize()
	if err != nil {
		return nil, err
	}
	circuits, err := opts.circuits()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "placement-hpwl",
		Title: "top-down ML placement vs GORDIAN quadratic placement (HPWL, lower is better)",
		Columns: []string{"Test Case",
			"ML-place", "ML-noTP", "GORDIAN", "random", "regions", "depth"},
		Notes: []string{
			"ML-noTP disables terminal propagation; random is a uniform placement baseline.",
			"The GORDIAN quadratic placement is grid-legalized before measuring (overlapping",
			"analytic placements would otherwise report near-zero HPWL).",
		},
	}
	for _, c := range circuits {
		rng := rand.New(rand.NewSource(opts.Seed))
		pl, err := placer.Place(c.H, nil, nil, nil, placer.Config{}, rng)
		if err != nil {
			return nil, err
		}
		rng = rand.New(rand.NewSource(opts.Seed))
		noTP, err := placer.Place(c.H, nil, nil, nil, placer.Config{TerminalPropagationOff: true}, rng)
		if err != nil {
			return nil, err
		}
		rng = rand.New(rand.NewSource(opts.Seed))
		_, gres, err := placement.Quadrisect(c.H, c.Pads, placement.Config{}, rng)
		if err != nil {
			return nil, err
		}
		gx, gy := placer.SpreadToGrid(c.H, gres.X, gres.Y)
		gHPWL := placer.HPWL(c.H, gx, gy)
		rng = rand.New(rand.NewSource(opts.Seed))
		rx := make([]float64, c.H.NumCells())
		ry := make([]float64, c.H.NumCells())
		for v := range rx {
			rx[v], ry[v] = rng.Float64(), rng.Float64()
		}
		t.AddRow(c.Spec.Name,
			fmt.Sprintf("%.2f", pl.HPWL),
			fmt.Sprintf("%.2f", noTP.HPWL),
			fmt.Sprintf("%.2f", gHPWL),
			fmt.Sprintf("%.2f", placer.HPWL(c.H, rx, ry)),
			fmtD(pl.Regions), fmtD(pl.Depth))
	}
	return t, nil
}

// AblationRecursive compares direct ML quadrisection against
// recursive ML bisection on 4-way cut nets — the design choice §III.C
// makes for placement reasons (direct quadrisection keeps the
// simultaneous 4-way geometry) even though recursive bisection often
// wins on raw cut.
func AblationRecursive(opts Options) (*Table, error) {
	opts, err := opts.Normalize()
	if err != nil {
		return nil, err
	}
	circuits, err := opts.circuits()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "ablation-recursive",
		Title:   fmt.Sprintf("4-way cut nets: direct ML quadrisection vs recursive ML bisection (min over %d runs)", opts.Runs),
		Columns: []string{"Test Case", "direct", "recursive"},
	}
	for _, c := range circuits {
		direct := RunMany(opts.Runs, opts.Workers, opts.Seed, algoMLQuad(c.H, fm.EngineFM))
		rec := RunMany(opts.Runs, opts.Workers, opts.Seed, func(rng *rand.Rand) (int, error) {
			p, err := core.RecursiveBisect(c.H, 4, core.Config{StallFraction: 1}, rng)
			if err != nil {
				return 0, err
			}
			return p.Cut(c.H), nil
		})
		if direct.Err != nil {
			return nil, direct.Err
		}
		if rec.Err != nil {
			return nil, rec.Err
		}
		t.AddRow(c.Spec.Name, fmtD(direct.Min()), fmtD(rec.Min()))
	}
	return t, nil
}

// AblationVCycle measures iterated multilevel refinement: ML_C
// followed by up to 3 V-cycles, against plain ML_C.
func AblationVCycle(opts Options) (*Table, error) {
	opts, err := opts.Normalize()
	if err != nil {
		return nil, err
	}
	circuits, err := opts.circuits()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "ablation-vcycle",
		Title:   fmt.Sprintf("ML_C vs ML_C + V-cycles (avg cut, %d runs)", opts.Runs),
		Columns: []string{"Test Case", "AVG-ML", "AVG-ML+V", "CPU-ML", "CPU-ML+V"},
	}
	mlCfg := core.Config{StallFraction: 1, Ratio: 0.5, Refine: fm.Config{Engine: fm.EngineCLIP}}
	for _, c := range circuits {
		plain := RunMany(opts.Runs, opts.Workers, opts.Seed, algoMLOpts(c.H, mlCfg))
		vc := RunMany(opts.Runs, opts.Workers, opts.Seed, func(rng *rand.Rand) (int, error) {
			p, _, err := core.Bipartition(c.H, mlCfg, rng)
			if err != nil {
				return 0, err
			}
			_, cut, err := core.VCycle(c.H, p, 3, mlCfg, rng)
			return cut, err
		})
		if plain.Err != nil {
			return nil, plain.Err
		}
		if vc.Err != nil {
			return nil, vc.Err
		}
		t.AddRow(c.Spec.Name, fmtF(plain.Mean()), fmtF(vc.Mean()),
			fmtSecs(plain.CPU.Seconds()), fmtSecs(vc.CPU.Seconds()))
	}
	return t, nil
}

// AblationMergeNets measures parallel-net merging (MergeParallelNets):
// identical weighted-cut semantics, smaller coarse netlists, lower
// CPU — the hMETIS-era optimization the paper's Definition 1 forgoes.
func AblationMergeNets(opts Options) (*Table, error) {
	opts, err := opts.Normalize()
	if err != nil {
		return nil, err
	}
	circuits, err := opts.circuits()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "ablation-mergenets",
		Title:   fmt.Sprintf("parallel-net merging in ML_C coarsening (%d runs)", opts.Runs),
		Columns: []string{"Test Case", "AVG-parallel", "AVG-merged", "CPU-parallel", "CPU-merged"},
	}
	for _, c := range circuits {
		plain := RunMany(opts.Runs, opts.Workers, opts.Seed, algoMLOpts(c.H, core.Config{
			Ratio: 0.5, StallFraction: 1, Refine: fm.Config{Engine: fm.EngineCLIP},
		}))
		merged := RunMany(opts.Runs, opts.Workers, opts.Seed, algoMLOpts(c.H, core.Config{
			Ratio: 0.5, StallFraction: 1, Refine: fm.Config{Engine: fm.EngineCLIP}, MergeParallelNets: true,
		}))
		if plain.Err != nil {
			return nil, plain.Err
		}
		if merged.Err != nil {
			return nil, merged.Err
		}
		t.AddRow(c.Spec.Name,
			fmtF(plain.Mean()), fmtF(merged.Mean()),
			fmtSecs(plain.CPU.Seconds()), fmtSecs(merged.CPU.Seconds()))
	}
	return t, nil
}

// AblationTwoPhase isolates the value of extra hierarchy levels:
// flat CLIP (0 levels) vs two-phase (1 level) vs full ML (many).
func AblationTwoPhase(opts Options) (*Table, error) {
	opts, err := opts.Normalize()
	if err != nil {
		return nil, err
	}
	circuits, err := opts.circuits()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "ablation-twophase",
		Title:   fmt.Sprintf("levels ablation: flat CLIP vs two-phase vs multilevel (%d runs, avg cut)", opts.Runs),
		Columns: []string{"Test Case", "flat(0)", "two-phase(1)", "ML(all)"},
	}
	for _, c := range circuits {
		flat := RunMany(opts.Runs, opts.Workers, opts.Seed, algoCLIP(c.H))
		twop := RunMany(opts.Runs, opts.Workers, opts.Seed, algoTwoPhase(c.H))
		ml := RunMany(opts.Runs, opts.Workers, opts.Seed, algoML(c.H, fm.EngineCLIP, 0.5))
		for _, r := range []RunStats{flat, twop, ml} {
			if r.Err != nil {
				return nil, r.Err
			}
		}
		t.AddRow(c.Spec.Name, fmtF(flat.Mean()), fmtF(twop.Mean()), fmtF(ml.Mean()))
	}
	return t, nil
}
