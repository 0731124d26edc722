package core

import (
	"context"
	"fmt"
	"math/rand"

	"mlpart/internal/hypergraph"
)

// RecursiveBisect produces a k-way partition (k a power of two) by
// recursive ML bipartitioning: the netlist is bipartitioned, each
// side's induced subcircuit is bipartitioned again, and so on —
// GORDIAN's top-down strategy with the paper's engine. Nets crossing
// a subcircuit boundary are simply dropped within the recursion
// (no terminal propagation), which is exactly the weakness direct
// quadrisection avoids; the ablation-recursive experiment quantifies
// the difference.
func RecursiveBisect(h *hypergraph.Hypergraph, k int, cfg Config, rng *rand.Rand) (*hypergraph.Partition, error) {
	//mllint:ignore ctx-thread non-Ctx compatibility wrapper: rooting a fresh context is its documented contract
	return RecursiveBisectCtx(context.Background(), h, k, cfg, rng)
}

// RecursiveBisectCtx is RecursiveBisect with cooperative cancellation:
// the context threads into every subcircuit bipartitioning. Once it
// is done, each remaining bipartition degrades to its projected-and-
// rebalanced form (see BipartitionCtx), so the k-way result is always
// a complete, valid partition.
func RecursiveBisectCtx(ctx context.Context, h *hypergraph.Hypergraph, k int, cfg Config, rng *rand.Rand) (*hypergraph.Partition, error) {
	if k < 2 || k&(k-1) != 0 {
		return nil, fmt.Errorf("core: recursive bisection needs a power-of-two k, got %d", k)
	}
	cfg, err := cfg.Normalize()
	if err != nil {
		return nil, err
	}
	ctx = orBackground(ctx)
	out := hypergraph.NewPartition(h.NumCells(), k)
	cells := make([]int32, h.NumCells())
	for v := range cells {
		cells[v] = int32(v)
	}
	if err := recurse(ctx, h, cells, 0, k, cfg, rng, out); err != nil {
		if _, ok := AsPanicError(err); ok {
			// Every subcircuit still produced a feasible bipartition
			// (degraded where needed), so out is complete; surface the
			// recovered panic alongside it.
			return out, err
		}
		return nil, err
	}
	return out, nil
}

// recurse bipartitions the subcircuit over the given cells and
// assigns blocks [base, base+width) to the result.
func recurse(ctx context.Context, h *hypergraph.Hypergraph, cells []int32, base, width int, cfg Config, rng *rand.Rand, out *hypergraph.Partition) error {
	if width == 1 || len(cells) == 0 {
		for _, v := range cells {
			out.Part[v] = int32(base)
		}
		return nil
	}
	if len(cells) == 1 {
		out.Part[cells[0]] = int32(base)
		return nil
	}
	// Build the induced subcircuit (crossing nets restricted to their
	// local pins; degenerate ones dropped by the builder).
	local := make(map[int32]int32, len(cells))
	for i, v := range cells {
		local[v] = int32(i)
	}
	b := hypergraph.NewBuilder(len(cells))
	for i, v := range cells {
		b.SetArea(i, h.Area(int(v)))
	}
	seen := make(map[int32]bool)
	pins := make([]int32, 0, 16)
	for _, v := range cells {
		for _, e := range h.Nets(int(v)) {
			if seen[e] {
				continue
			}
			seen[e] = true
			pins = pins[:0]
			for _, u := range h.Pins(int(e)) {
				if lu, ok := local[u]; ok {
					pins = append(pins, lu)
				}
			}
			if len(pins) >= 2 {
				b.AddNet32(pins)
			}
		}
	}
	sub, err := b.Build()
	if err != nil {
		return err
	}
	p, _, err := BipartitionCtx(ctx, sub, cfg, rng)
	var deferred error
	if err != nil {
		if _, ok := AsPanicError(err); !ok || p == nil {
			return err
		}
		// Recovered panic with a feasible degraded partition: finish
		// the recursion and report the first such error at the end.
		deferred = err
	}
	var left, right []int32
	for i, v := range cells {
		if p.Part[i] == 0 {
			left = append(left, v)
		} else {
			right = append(right, v)
		}
	}
	if err := recurse(ctx, h, left, base, width/2, cfg, rng, out); err != nil {
		if _, ok := AsPanicError(err); !ok {
			return err
		}
		if deferred == nil {
			deferred = err
		}
	}
	if err := recurse(ctx, h, right, base+width/2, width/2, cfg, rng, out); err != nil {
		if _, ok := AsPanicError(err); !ok {
			return err
		}
		if deferred == nil {
			deferred = err
		}
	}
	return deferred
}
