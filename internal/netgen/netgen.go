// Package netgen generates deterministic synthetic netlist
// hypergraphs standing in for the 23 ACM/SIGDA benchmark circuits of
// Table I (the originals, distributed from the CAD Benchmarking
// Laboratory at ftp.cbl.ncsu.edu, are not available offline).
//
// The generator produces circuits with (a) the same module/net/pin
// counts as the originals, (b) a net-size distribution dominated by
// 2–3 pin nets with a geometric tail, and (c) genuine hierarchical
// cluster structure: cells sit at the leaves of an implicit binary
// hierarchy and each net is drawn inside a subtree whose depth is
// sampled to favor local connections (a Rent's-rule-style locality
// model). Property (c) is what makes clustering-based partitioners
// effective on real circuits, so the relative behaviour of
// FM/CLIP/ML on these instances mirrors the paper even though
// absolute cut values differ.
package netgen

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"mlpart/internal/hypergraph"
)

// Spec describes one synthetic circuit.
type Spec struct {
	// Name of the benchmark this instance stands in for.
	Name string
	// Cells, Nets and Pins are the Table-I size targets. Pins is
	// approximate: net sizes are sampled, so the realized pin count
	// is within a few percent.
	Cells int
	Nets  int
	Pins  int
	// Seed drives all randomness; equal specs generate identical
	// hypergraphs.
	Seed int64
	// Locality ∈ (0,1) is the probability mass pulled toward deep
	// (local) subtrees; higher = more clustered. Default 0.75.
	Locality float64
	// PadFraction of cells are flagged as I/O pads (returned
	// separately); pads participate in nets like any cell. Default
	// 0.02.
	PadFraction float64
}

// Normalize fills defaults and validates.
func (s Spec) Normalize() (Spec, error) {
	if s.Cells < 2 {
		return s, fmt.Errorf("netgen: %q needs ≥ 2 cells, got %d", s.Name, s.Cells)
	}
	if s.Nets < 0 {
		return s, fmt.Errorf("netgen: negative net count")
	}
	if s.Pins == 0 {
		s.Pins = 3 * s.Nets
	}
	if s.Nets > 0 && s.Pins < 2*s.Nets {
		return s, fmt.Errorf("netgen: %q pins %d < 2·nets %d", s.Name, s.Pins, s.Nets)
	}
	if s.Locality == 0 {
		s.Locality = 0.75
	}
	if s.Locality <= 0 || s.Locality >= 1 {
		return s, fmt.Errorf("netgen: locality %v outside (0,1)", s.Locality)
	}
	if s.PadFraction == 0 {
		s.PadFraction = 0.02
	}
	if s.PadFraction < 0 || s.PadFraction > 0.5 {
		return s, fmt.Errorf("netgen: pad fraction %v outside [0,0.5]", s.PadFraction)
	}
	return s, nil
}

// Circuit is a generated instance.
type Circuit struct {
	Spec Spec
	H    *hypergraph.Hypergraph
	// Pads flags the cells designated as I/O pads.
	Pads []bool
}

// Generate builds the synthetic circuit for spec.
func Generate(spec Spec) (*Circuit, error) {
	spec, err := spec.Normalize()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(spec.Seed ^ int64(spec.Cells)<<20 ^ int64(spec.Nets)))
	n := spec.Cells
	b := hypergraph.NewBuilder(n)

	// Net-size distribution: size = 2 + Geometric(q) with mean
	// matched to pins/nets; clamped to [2, 32].
	meanSize := 3.0
	if spec.Nets > 0 {
		meanSize = float64(spec.Pins) / float64(spec.Nets)
	}
	extra := meanSize - 2
	if extra < 0.01 {
		extra = 0.01
	}
	q := extra / (extra + 1) // geometric success prob, mean extra/(1-q)... mean = q/(1-q) = extra

	// depth of the implicit binary hierarchy
	maxDepth := 0
	for (n >> uint(maxDepth+1)) >= 4 {
		maxDepth++
	}

	pins := make([]int32, 0, 32)
	for e := 0; e < spec.Nets; e++ {
		// Sample size.
		size := 2
		for size < 32 && rng.Float64() < q {
			size++
		}
		// Sample locality depth: each level, descend with probability
		// Locality. Depth maxDepth = most local.
		depth := 0
		for depth < maxDepth && rng.Float64() < spec.Locality {
			depth++
		}
		// Random subtree of that depth: a contiguous index range.
		width := n >> uint(depth)
		if width < size {
			width = size
		}
		base := 0
		if n > width {
			base = rng.Intn(n - width + 1)
		}
		// Draw `size` distinct cells from [base, base+width); a net
		// has at most 32 pins, so a scan beats a set.
		pins = pins[:0]
		tries := 0
		for len(pins) < size && tries < 8*size {
			v := int32(base + rng.Intn(width))
			tries++
			if !slices.Contains(pins, v) {
				pins = append(pins, v)
			}
		}
		if len(pins) >= 2 {
			b.AddNet32(pins)
		}
	}
	h, err := b.Build()
	if err != nil {
		return nil, err
	}
	// Designate pads: cells spread across the hierarchy (uniformly
	// random, deterministic).
	pads := make([]bool, n)
	numPads := int(math.Round(spec.PadFraction * float64(n)))
	perm := rng.Perm(n)
	for i := 0; i < numPads && i < n; i++ {
		pads[perm[i]] = true
	}
	return &Circuit{Spec: spec, H: h, Pads: pads}, nil
}

// MustGenerate is Generate that panics on error (constructed specs).
func MustGenerate(spec Spec) *Circuit {
	c, err := Generate(spec)
	if err != nil {
		panic(err)
	}
	return c
}
