package expt

import (
	"fmt"
	"math/rand"

	"mlpart/internal/core"
	"mlpart/internal/fm"
	"mlpart/internal/telemetry"
)

// StageProfile tabulates where ML_C spends its work, using the
// telemetry collector as its data source (one armed ML_C run per
// circuit): hierarchy depth, coarsest size, refinement passes, move
// acceptance, rebalance activity, and the coarsen/refine wall-clock
// split. The count columns are a pure function of (circuit, seed);
// the time columns are wall-clock measurements.
func StageProfile(opts Options) (*Table, error) {
	opts, err := opts.Normalize()
	if err != nil {
		return nil, err
	}
	circuits, err := opts.circuits()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "stage-profile",
		Title: "ML_C per-stage profile from the telemetry collector (1 run)",
		Columns: []string{"Test Case", "levels", "coarsest", "passes",
			"kept/tried", "rebal(moved)", "coarsen s", "refine s"},
		Notes: []string{"count columns are deterministic per seed; the s columns are wall-clock."},
	}
	for _, c := range circuits {
		tel := telemetry.New()
		cfg := core.Config{
			StallFraction: 1,
			Ratio:         0.5,
			Threshold:     35,
			Refine:        fm.Config{Engine: fm.EngineCLIP},
			Telemetry:     tel,
		}
		rng := rand.New(rand.NewSource(RunSeed(opts.Seed, 0)))
		_, res, err := core.Bipartition(c.H, cfg, rng)
		if err != nil {
			return nil, err
		}
		s := tel.TakeStart(0, "ok", res.Cut, 0)
		coarsest := c.H.NumCells()
		if n := len(s.Coarsening); n > 0 {
			coarsest = s.Coarsening[n-1].Cells
		}
		tried, kept := 0, 0
		for _, p := range s.Passes {
			tried += p.MovesTried
			kept += p.MovesKept
		}
		t.AddRow(c.Spec.Name,
			fmt.Sprint(len(s.Coarsening)),
			fmt.Sprint(coarsest),
			fmt.Sprint(len(s.Passes)),
			fmt.Sprintf("%d/%d", kept, tried),
			fmt.Sprintf("%d(%d)", s.Rebalances, s.RebalanceMoved),
			fmtSecs(float64(s.Timings.CoarsenNS)/1e9),
			fmtSecs(float64(s.Timings.RefineNS)/1e9))
	}
	return t, nil
}
