package main

import (
	"fmt"
	"slices"
	"strings"

	"mlpart"
)

// circuitSize is one netgen size class; the circuit's generator seed
// comes from the workload seed.
type circuitSize struct {
	cells, nets, pins int
}

// workload is one named input set. Library workloads call the public
// entry points directly; the service workload drives an in-process
// mlpartd over loopback HTTP. Every workload's op list is a pure
// function of the seed, so cuts repeat exactly run over run.
type workload struct {
	name    string
	service bool
	// sizes lists the circuits. A library workload's cycle runs one op
	// on each, so how hard one generated circuit happens to be moves
	// cut_mean by a share of 1/len(sizes).
	sizes []circuitSize
	// k and intra are the library workloads' block count and
	// Options.IntraParallelism.
	k, intra int
	// cycle is the op prefix cut_mean and the cuts digest cover. A run
	// always completes it, however long that takes, so both are exact
	// for a seed.
	cycle int
}

// sized returns n circuits of one size class.
func sized(n int, s circuitSize) []circuitSize {
	out := make([]circuitSize, n)
	for i := range out {
		out[i] = s
	}
	return out
}

// alternating returns 2n circuits, even ones of size a, odd ones of b.
func alternating(n int, a, b circuitSize) []circuitSize {
	var out []circuitSize
	for i := 0; i < n; i++ {
		out = append(out, a, b)
	}
	return out
}

// workloads are the benchmark's fixed workloads; see README.md for why
// each exists and which layers it stresses.
func workloads() []workload {
	return []workload{
		{name: "bisect-large", sizes: sized(48, circuitSize{8000, 8500, 28000}), k: 2, cycle: 48},
		{name: "bisect-small-par", sizes: sized(128, circuitSize{2000, 2100, 7000}), k: 2, intra: 2, cycle: 128},
		{name: "quad-par", sizes: sized(48, circuitSize{3000, 3200, 10500}), k: 4, intra: 2, cycle: 48},
		{
			// Even circuits fit under batchPinLimit (batch lane), odd ones
			// do not (solo lane).
			name:    "service-mix",
			service: true,
			sizes:   alternating(16, circuitSize{1000, 1100, 3600}, circuitSize{2000, 2100, 7000}),
			cycle:   128,
		},
	}
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (want all or one of %s)", name, strings.Join(names, ", "))
}

// op is one partitioning request: a circuit, a block count and the
// options. repeatOf >= 0 marks a service job that resubmits op
// repeatOf's exact request.
type op struct {
	index    int
	circuit  int
	k        int
	opt      mlpart.Options
	repeatOf int
}

// options are a workload's Options for one run seed.
func (w workload) options(seed int64) mlpart.Options {
	return mlpart.Options{Seed: seed, Parallelism: 1, IntraParallelism: w.intra}
}

// op returns the workload's i-th op for the given seed.
func (w workload) op(seed int64, i int) op {
	n := len(w.sizes)
	if w.service {
		// Every 4th job repeats the computed job three places earlier
		// (a result-cache hit when that job has finished); every 4th is
		// a quadrisection. The circuit rotates so both job shapes meet
		// every circuit.
		if i%4 == 3 {
			o := w.op(seed, i-3)
			o.index, o.repeatOf = i, i-3
			return o
		}
		k := 2
		if i%4 == 1 {
			k = 4
		}
		return op{index: i, circuit: (i + i/n) % n, k: k, opt: w.options(mix(seed, uint64(i))), repeatOf: -1}
	}
	return op{index: i, circuit: i % n, k: w.k, opt: w.options(mix(seed, uint64(i))), repeatOf: -1}
}

// warmSeed makes the set-up circuits and run seeds. Salts keep every
// stream mix draws from apart: op i's run seed is mix(seed, i), the
// circuits come from mix(seed, 1<<32), and set-up uses salts 1<<33 and
// 1<<40 on warmSeed.
const warmSeed = 1

// warmCircuits generates one set-up circuit per size class, from
// warmSeed: set-up does the same work whatever the workload seed, and
// never touches a measured circuit (on the service, it never pre-fills
// the result cache for a measured job).
func (w workload) warmCircuits() ([]circuit, error) {
	var classes []circuitSize
	for _, s := range w.sizes {
		if !slices.Contains(classes, s) {
			classes = append(classes, s)
		}
	}
	return generate(w.name+"-warm", classes, mix(warmSeed, 1<<33))
}

// warmOps are the set-up ops on warmCircuits: two per circuit, of the
// workload's block count on a library workload, one of each block count
// on the service.
func (w workload) warmOps(circuits int) []op {
	ks := []int{w.k, w.k}
	if w.service {
		ks = []int{2, 4}
	}
	var ops []op
	for c := 0; c < circuits; c++ {
		for _, k := range ks {
			ops = append(ops, op{index: -1, circuit: c, k: k, opt: w.options(mix(warmSeed, 1<<40+uint64(len(ops)))), repeatOf: -1})
		}
	}
	return ops
}

// circuit is one generated input with its hMETIS text, the exact bytes
// a service client submits.
type circuit struct {
	h   *mlpart.Hypergraph
	hgr string
}

// genCircuits generates the workload's circuits for seed.
func (w workload) genCircuits(seed int64) ([]circuit, error) {
	return generate(w.name, w.sizes, mix(seed, 1<<32))
}

func generate(name string, sizes []circuitSize, seed int64) ([]circuit, error) {
	out := make([]circuit, len(sizes))
	for i, s := range sizes {
		c, err := mlpart.GenerateCircuit(mlpart.CircuitSpec{
			Name:  fmt.Sprintf("%s-%d", name, i),
			Cells: s.cells, Nets: s.nets, Pins: s.pins,
			Seed: mix(seed, uint64(i)),
		})
		if err != nil {
			return nil, err
		}
		var b strings.Builder
		if err := mlpart.WriteHGR(&b, c.H); err != nil {
			return nil, err
		}
		out[i] = circuit{h: c.H, hgr: b.String()}
	}
	return out, nil
}

// mix derives a seed from (seed, salt) with the splitmix64 finalizer,
// so op seeds are independent streams without a shared RNG.
func mix(seed int64, salt uint64) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*(salt+1)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return int64((z ^ z>>31) >> 1)
}
