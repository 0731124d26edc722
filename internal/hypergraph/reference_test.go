package hypergraph

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// A frozen copy of the string-based .hgr reader and the slice-per-net
// Builder that the flat-buffer code replaced. FuzzReadHGRMatchesReference
// holds the production reader to it: same error text, or a hypergraph
// identical array for array. Do not edit it to follow the production
// code; it is the specification.

type refBuilder struct {
	numCells int
	area     []int64
	nets     [][]int32
	weights  []int32
	err      error
}

func refNewBuilder(numCells int) *refBuilder {
	if numCells < 0 {
		return &refBuilder{err: fmt.Errorf("hypergraph: negative cell count %d", numCells)}
	}
	b := &refBuilder{numCells: numCells, area: make([]int64, numCells)}
	for i := range b.area {
		b.area[i] = 1
	}
	return b
}

func (b *refBuilder) SetArea(v int, area int64) {
	if b.err != nil {
		return
	}
	if v < 0 || v >= b.numCells {
		b.err = fmt.Errorf("hypergraph: SetArea cell %d out of range [0,%d)", v, b.numCells)
		return
	}
	if area < 0 {
		b.err = fmt.Errorf("hypergraph: SetArea cell %d negative area %d", v, area)
		return
	}
	b.area[v] = area
}

func (b *refBuilder) AddWeightedNet32(weight int32, pins []int32) {
	if b.err != nil {
		return
	}
	if weight < 1 {
		b.err = fmt.Errorf("hypergraph: net weight %d < 1", weight)
		return
	}
	for _, p := range pins {
		if p < 0 || int(p) >= b.numCells {
			b.err = fmt.Errorf("hypergraph: AddNet32 pin %d out of range [0,%d)", p, b.numCells)
			return
		}
	}
	net := make([]int32, len(pins))
	copy(net, pins)
	b.nets = append(b.nets, net)
	b.weights = append(b.weights, weight)
}

func (b *refBuilder) Build() (*Hypergraph, error) {
	if b.err != nil {
		return nil, b.err
	}
	kept := make([][]int32, 0, len(b.nets))
	keptW := make([]int32, 0, len(b.nets))
	weighted := false
	for ni, net := range b.nets {
		sort.Slice(net, func(i, j int) bool { return net[i] < net[j] })
		out := net[:0]
		var prev int32 = -1
		for _, p := range net {
			if p != prev {
				out = append(out, p)
				prev = p
			}
		}
		if len(out) >= 2 {
			kept = append(kept, out)
			w := b.weights[ni]
			keptW = append(keptW, w)
			if w != 1 {
				weighted = true
			}
		}
	}
	h := &Hypergraph{
		numCells: b.numCells,
		numNets:  len(kept),
		area:     b.area,
	}
	if weighted {
		h.netWeight = keptW
	}
	numPins := 0
	for _, net := range kept {
		numPins += len(net)
	}
	if numPins > math.MaxInt32 {
		return nil, fmt.Errorf("hypergraph: %d pins overflow the int32 CSR index space", numPins)
	}
	h.netStart = make([]int32, len(kept)+1)
	h.netPins = make([]int32, numPins)
	at := int32(0)
	for e, net := range kept {
		h.netStart[e] = at
		copy(h.netPins[at:], net)
		at += int32(len(net)) //mllint:ignore unchecked-narrow len(net) <= numPins, checked against MaxInt32 above
	}
	h.netStart[len(kept)] = at
	deg := make([]int32, b.numCells+1)
	for _, net := range kept {
		for _, p := range net {
			deg[p+1]++
		}
	}
	h.cellStart = make([]int32, b.numCells+1)
	for v := 0; v < b.numCells; v++ {
		h.cellStart[v+1] = h.cellStart[v] + deg[v+1]
	}
	h.cellNets = make([]int32, numPins)
	fill := make([]int32, b.numCells)
	copy(fill, h.cellStart[:b.numCells])
	for e, net := range kept {
		for _, p := range net {
			h.cellNets[fill[p]] = int32(e)
			fill[p]++
		}
	}
	for v, a := range b.area {
		total, err := addArea(h.totalArea, a)
		if err != nil {
			return nil, err
		}
		h.totalArea = total
		if v == 0 || a < h.minArea {
			h.minArea = a
		}
		if a > h.maxArea {
			h.maxArea = a
		}
	}
	return h, nil
}

func (b *refBuilder) MustBuild(t *testing.T) *Hypergraph {
	t.Helper()
	h, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func refReadHGRLimits(r io.Reader, lim Limits) (*Hypergraph, error) {
	lim = lim.normalize()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	line, err := refNextLine(sc)
	if err != nil {
		return nil, fmt.Errorf("hgr: missing header: %w", err)
	}
	fields := strings.Fields(line)
	if len(fields) < 2 || len(fields) > 3 {
		return nil, fmt.Errorf("hgr: malformed header %q", line)
	}
	numNets, err := strconv.Atoi(fields[0])
	if err != nil || numNets < 0 {
		return nil, fmt.Errorf("hgr: bad net count %q", fields[0])
	}
	numCells, err := strconv.Atoi(fields[1])
	if err != nil || numCells < 0 {
		return nil, fmt.Errorf("hgr: bad cell count %q", fields[1])
	}
	if err := lim.checkNets(numNets); err != nil {
		return nil, fmt.Errorf("hgr: %w", err)
	}
	if err := lim.checkCells(numCells); err != nil {
		return nil, fmt.Errorf("hgr: %w", err)
	}
	cellWeights, netWeights := false, false
	if len(fields) == 3 {
		switch fields[2] {
		case "0", "00":
		case "1", "01":
			netWeights = true
		case "10":
			cellWeights = true
		case "11":
			cellWeights, netWeights = true, true
		default:
			return nil, fmt.Errorf("hgr: unsupported fmt %q", fields[2])
		}
	}
	b := refNewBuilder(numCells)
	pins := make([]int32, 0, 16)
	totalPins := 0
	for e := 0; e < numNets; e++ {
		line, err := refNextLine(sc)
		if err != nil {
			return nil, fmt.Errorf("hgr: net %d: %w", e+1, err)
		}
		fs := strings.Fields(line)
		weight := int32(1)
		if netWeights {
			if len(fs) == 0 {
				return nil, fmt.Errorf("hgr: net %d: missing weight", e+1)
			}
			w, err := strconv.Atoi(fs[0])
			if err != nil || w < 1 || w > math.MaxInt32 {
				return nil, fmt.Errorf("hgr: net %d: bad weight %q", e+1, fs[0])
			}
			weight = int32(w)
			fs = fs[1:]
		}
		totalPins += len(fs)
		if err := lim.checkPins(totalPins); err != nil {
			return nil, fmt.Errorf("hgr: net %d: %w", e+1, err)
		}
		pins = pins[:0]
		for _, f := range fs {
			p, err := strconv.Atoi(f)
			if err != nil {
				return nil, fmt.Errorf("hgr: net %d: bad pin %q", e+1, f)
			}
			if p < 1 || p > numCells {
				return nil, fmt.Errorf("hgr: net %d: pin %d out of range [1,%d]", e+1, p, numCells)
			}
			pins = append(pins, int32(p-1))
		}
		b.AddWeightedNet32(weight, pins)
	}
	if cellWeights {
		for v := 0; v < numCells; v++ {
			line, err := refNextLine(sc)
			if err != nil {
				return nil, fmt.Errorf("hgr: weight of cell %d: %w", v+1, err)
			}
			a, err := strconv.ParseInt(strings.TrimSpace(line), 10, 64)
			if err != nil || a < 0 {
				return nil, fmt.Errorf("hgr: bad weight %q for cell %d", line, v+1)
			}
			b.SetArea(v, a)
		}
	}
	return b.Build()
}

func refNextLine(sc *bufio.Scanner) (string, error) {
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		return line, nil
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", io.ErrUnexpectedEOF
}
