package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (0 <= q <= 1) of xs by the rule of
// Python's statistics.quantiles(method="exclusive"): the value at rank
// q*(n+1), interpolated between neighbours and clamped to the smallest
// and largest sample. It is the one quantile rule of the benchmark —
// per-run medians and tails and the --repeat quartiles alike — so a
// spread printed by --repeat is the spread the comparison protocol
// states. NaN for an empty sample.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q*float64(len(s)+1) - 1 // 0-based rank
	if pos <= 0 {
		return s[0]
	}
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }
