package main

import (
	"math/rand"
	"slices"
	"time"
)

// The benchmark runs on shared hosts, where other tenants slow every
// call by up to 40% for seconds to minutes at a time, and no clock or
// statistic within one run removes that. setup_s, the one end-to-end
// time, is therefore reported at nominal host speed: a fixed kernel of
// the benchmark's own — sorting, pointer chasing over a cache-sized
// array and map updates — is timed right before and right after each
// set-up, and the set-up time is multiplied by nominalCalibrationMS over
// the kernel's median time. The kernel never calls the program, so a
// change to the program moves setup_s and leaves the scale alone.

// nominalCalibrationMS is the kernel's median time on the reference
// host, a 2-vCPU Intel Xeon virtual machine at 2.0 GHz with Go 1.24; a
// scaled time reads as that host measures it at its usual speed.
const nominalCalibrationMS = 0.66

const (
	calibrationKeys  = 4096
	calibrationChase = 1 << 16 // entries of the pointer-chase cycle: 256 KiB
	calibrationSteps = 60000
	calibrationMap   = 2048
	// calibrationBlock is how many samples a block takes.
	calibrationBlock = 40
)

// calibrator times the kernel. Its buffers are allocated once, so a
// sample allocates nothing.
type calibrator struct {
	keys, buf []uint64
	next      []int32
	m         map[uint64]int
	sink      int
}

func newCalibrator() *calibrator {
	r := rand.New(rand.NewSource(1))
	c := &calibrator{
		keys: make([]uint64, calibrationKeys),
		buf:  make([]uint64, calibrationKeys),
		next: make([]int32, calibrationChase),
		m:    make(map[uint64]int, calibrationMap),
	}
	for i := range c.keys {
		c.keys[i] = r.Uint64()
	}
	// One cycle through every entry, in random order.
	p := r.Perm(calibrationChase)
	for i, v := range p {
		c.next[v] = int32(p[(i+1)%len(p)])
	}
	return c
}

// sample times one run of the kernel, in ms.
func (c *calibrator) sample() float64 {
	t0 := time.Now()
	copy(c.buf, c.keys)
	slices.Sort(c.buf)
	j := int32(0)
	for i := 0; i < calibrationSteps; i++ {
		j = c.next[j]
	}
	clear(c.m)
	for i, k := range c.buf[:calibrationMap] {
		c.m[k>>7] += i
	}
	c.sink += int(j) + len(c.m)
	return ms(time.Since(t0))
}

// block returns calibrationBlock samples taken back to back.
func (c *calibrator) block() []float64 {
	xs := make([]float64, calibrationBlock)
	for i := range xs {
		xs[i] = c.sample()
	}
	return xs
}

// hostScale is the factor that turns a time measured beside the kernel
// samples into one at nominal host speed.
func hostScale(samples []float64) float64 {
	return nominalCalibrationMS / median(samples)
}
