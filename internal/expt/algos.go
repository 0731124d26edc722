package expt

import (
	"math/rand"

	"mlpart/internal/core"
	"mlpart/internal/fm"
	"mlpart/internal/gainbucket"
	"mlpart/internal/hypergraph"
	"mlpart/internal/kway"
	"mlpart/internal/lsmc"
	"mlpart/internal/netgen"
	"mlpart/internal/placement"
)

// The adapters below wrap each algorithm as an Algo returning the
// quality metric the corresponding paper table reports.

func algoFM(h *hypergraph.Hypergraph, cfg fm.Config) Algo {
	return func(rng *rand.Rand) (int, error) {
		_, res, err := fm.Partition(h, nil, cfg, rng)
		return res.Cut, err
	}
}

func algoFMOrder(h *hypergraph.Hypergraph, order gainbucket.Order) Algo {
	return algoFM(h, fm.Config{Order: order})
}

func algoCLIP(h *hypergraph.Hypergraph) Algo {
	return algoFM(h, fm.Config{Engine: fm.EngineCLIP})
}

func algoML(h *hypergraph.Hypergraph, engine fm.Engine, ratio float64) Algo {
	cfg := core.Config{StallFraction: 1, Ratio: ratio, Threshold: 35, Refine: fm.Config{Engine: engine}}
	return func(rng *rand.Rand) (int, error) {
		_, res, err := core.Bipartition(h, cfg, rng)
		return res.Cut, err
	}
}

// algoLSMC runs one LSMC solution built from `descents` FM descents
// (so a single LSMC "run" consumes the same budget as `descents`
// plain FM runs, as in the paper's 100-descent runs).
func algoLSMC(h *hypergraph.Hypergraph, engine fm.Engine, descents int) Algo {
	cfg := lsmc.Config{Descents: descents, Refine: fm.Config{Engine: engine}}
	return func(rng *rand.Rand) (int, error) {
		_, res, err := lsmc.Bipartition(h, cfg, rng)
		return res.Cut, err
	}
}

func algoKway4(h *hypergraph.Hypergraph, engine fm.Engine) Algo {
	cfg := kway.Config{K: 4, Engine: engine, Objective: kway.SumOfDegrees}
	return func(rng *rand.Rand) (int, error) {
		_, res, err := kway.Partition(h, nil, cfg, rng)
		return res.CutNets, err
	}
}

func algoLSMC4(h *hypergraph.Hypergraph, engine fm.Engine, descents int) Algo {
	cfg := lsmc.Config{Descents: descents}
	kcfg := kway.Config{K: 4, Engine: engine, Objective: kway.SumOfDegrees}
	return func(rng *rand.Rand) (int, error) {
		_, res, err := lsmc.Kway(h, cfg, kcfg, rng)
		return res.CutNets, err
	}
}

func algoMLQuad(h *hypergraph.Hypergraph, engine fm.Engine) Algo {
	cfg := core.QuadConfig{
		StallFraction: 1,
		Threshold:     100,
		Ratio:         1.0,
		Refine:        kway.Config{K: 4, Engine: engine, Objective: kway.SumOfDegrees},
	}
	return func(rng *rand.Rand) (int, error) {
		_, res, err := core.Quadrisect(h, cfg, rng)
		return res.CutNets, err
	}
}

func algoGordian(c *netgen.Circuit) Algo {
	return func(rng *rand.Rand) (int, error) {
		_, res, err := placement.Quadrisect(c.H, c.Pads, placement.Config{}, rng)
		return res.CutNets, err
	}
}

// algoMLOpts exposes full core.Config control (ablations).
func algoMLOpts(h *hypergraph.Hypergraph, cfg core.Config) Algo {
	return func(rng *rand.Rand) (int, error) {
		_, res, err := core.Bipartition(h, cfg, rng)
		return res.Cut, err
	}
}
