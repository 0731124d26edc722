package intrapar

import (
	"sync/atomic"
	"testing"
)

// ranges runs a Run over n items and records which (worker, lo, hi)
// ranges were issued, in range-index order.
func ranges(p *Pool, n int) [][3]int {
	out := make([][3]int, p.Workers())
	for i := range out {
		out[i] = [3]int{-1, -1, -1}
	}
	p.Run(n, func(worker, lo, hi int) {
		out[worker] = [3]int{worker, lo, hi}
	})
	return out
}

// TestRangesPartition checks that every Run covers [0, n) exactly once
// with contiguous, ascending, non-empty ranges, for a spread of
// (workers, n) combinations including n < workers and n == 0.
func TestRangesPartition(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		p := New(workers)
		for _, n := range []int{0, 1, 2, 3, 7, 8, 9, 100, 1023} {
			got := ranges(p, n)
			lo := 0
			used := 0
			for i, r := range got {
				if r[0] < 0 {
					continue // range index not issued
				}
				used++
				if r[0] != i {
					t.Fatalf("workers=%d n=%d: slot %d got worker %d", workers, n, i, r[0])
				}
				if r[1] != lo {
					t.Fatalf("workers=%d n=%d worker %d: lo=%d want %d", workers, n, i, r[1], lo)
				}
				if r[2] <= r[1] {
					t.Fatalf("workers=%d n=%d worker %d: empty range [%d,%d)", workers, n, i, r[1], r[2])
				}
				lo = r[2]
			}
			if lo != n {
				t.Fatalf("workers=%d n=%d: ranges cover [0,%d), want [0,%d)", workers, n, lo, n)
			}
			if n > 0 && used != min(workers, n) {
				t.Fatalf("workers=%d n=%d: %d ranges issued, want %d", workers, n, used, min(workers, n))
			}
		}
		p.Close()
	}
}

// TestRangeBoundariesMatchSerial checks the determinism contract
// directly: the range boundaries for a given (workers, n) are a pure
// function of those two values, so two pools with the same size issue
// identical ranges.
func TestRangeBoundariesMatchSerial(t *testing.T) {
	a, b := New(4), New(4)
	defer a.Close()
	defer b.Close()
	for _, n := range []int{1, 5, 16, 17, 333} {
		if ra, rb := ranges(a, n), ranges(b, n); len(ra) != len(rb) {
			t.Fatalf("n=%d: range count differs", n)
		} else {
			for i := range ra {
				if ra[i] != rb[i] {
					t.Fatalf("n=%d range %d: %v vs %v", n, i, ra[i], rb[i])
				}
			}
		}
	}
}

// TestRunComputesInParallel sums integers with per-worker accumulator
// slots merged on the caller, across worker counts, and checks the
// result is identical and correct.
func TestRunComputesInParallel(t *testing.T) {
	const n = 10000
	want := n * (n - 1) / 2
	for _, workers := range []int{1, 2, 8} {
		p := New(workers)
		acc := make([]int, p.Workers())
		p.Run(n, func(worker, lo, hi int) {
			s := 0
			for i := lo; i < hi; i++ {
				s += i
			}
			acc[worker] = s
		})
		p.Close()
		got := 0
		for _, s := range acc {
			got += s
		}
		if got != want {
			t.Fatalf("workers=%d: sum=%d want %d", workers, got, want)
		}
	}
}

// TestSingleWorkerInline checks that a one-worker pool runs the range
// function on the calling goroutine (observable via a plain, unsynced
// variable: the race detector would flag any cross-goroutine access).
func TestSingleWorkerInline(t *testing.T) {
	p := New(1)
	defer p.Close()
	hit := 0
	p.Run(5, func(worker, lo, hi int) {
		if worker != 0 || lo != 0 || hi != 5 {
			t.Fatalf("inline range = (%d,%d,%d), want (0,0,5)", worker, lo, hi)
		}
		hit++
	})
	if hit != 1 {
		t.Fatalf("fn ran %d times, want 1", hit)
	}
}

// TestPanicPropagates checks that a panic in a range function is
// re-raised on the calling goroutine with the original panic value,
// that the lowest range index wins when several panic, and that the
// pool stays usable afterwards.
func TestPanicPropagates(t *testing.T) {
	for _, workers := range []int{1, 4} {
		p := New(workers)
		func() {
			defer func() {
				pv := recover()
				if pv != "boom:0" {
					t.Fatalf("workers=%d: recovered %v, want boom:0", workers, pv)
				}
			}()
			p.Run(8, func(worker, lo, hi int) {
				if worker%2 == 0 {
					panic("boom:" + string(rune('0'+worker)))
				}
			})
			t.Fatalf("workers=%d: Run returned without panicking", workers)
		}()
		// Pool must still work after a panic.
		var count atomic.Int64
		p.Run(100, func(worker, lo, hi int) {
			count.Add(int64(hi - lo))
		})
		if count.Load() != 100 {
			t.Fatalf("workers=%d: post-panic Run covered %d, want 100", workers, count.Load())
		}
		p.Close()
	}
}

// TestRegionsCountsRuns checks the telemetry hook: Regions increments
// once per Run, including empty ones, on the calling goroutine.
func TestRegionsCountsRuns(t *testing.T) {
	p := New(2)
	defer p.Close()
	for i := 0; i < 5; i++ {
		p.Run(i, func(worker, lo, hi int) {})
	}
	if got := p.Regions(); got != 5 {
		t.Fatalf("Regions=%d want 5", got)
	}
}

// TestNilPoolClose checks the unconditional-defer contract.
func TestNilPoolClose(t *testing.T) {
	var p *Pool
	p.Close() // must not panic
}

// TestNilPoolInline checks the one-wide inline pool: a nil pool runs
// one range [0, n) as worker 0, skips empty runs, reports one worker
// and never counts a region.
func TestNilPoolInline(t *testing.T) {
	var p *Pool
	if p.Workers() != 1 {
		t.Fatalf("nil pool Workers=%d want 1", p.Workers())
	}
	var calls [][3]int
	for _, n := range []int{0, 1, 7} {
		p.Run(n, func(worker, lo, hi int) { calls = append(calls, [3]int{worker, lo, hi}) })
	}
	if len(calls) != 2 || calls[0] != [3]int{0, 0, 1} || calls[1] != [3]int{0, 0, 7} {
		t.Fatalf("nil pool ranges %v, want [[0 0 1] [0 0 7]]", calls)
	}
	if p.Regions() != 0 {
		t.Fatalf("nil pool Regions=%d want 0", p.Regions())
	}
}
