// Package gainbucket implements the Fiduccia–Mattheyses gain-bucket
// data structure with selectable bucket organizations: LIFO, FIFO, or
// random, the implementation choice studied in §II.A of
// Alpert/Huang/Kahng (after Hagen, Huang, Kahng, "On Implementation
// Choices for Iterative Improvement Partitioning Algorithms").
//
// A Structure holds a set of cells keyed by an integer gain in
// [-maxGain, +maxGain] (or [-2·maxGain, +2·maxGain] for CLIP). Each
// bucket is an intrusive doubly-linked list over dense per-cell
// prev/next arrays, so insert, remove and update are O(1); the
// structure keeps a max-gain cursor that only ever descends within a
// pass and is bumped on insert, giving amortized O(1) maxima.
package gainbucket

import (
	"fmt"
	"math/rand"
)

// Order selects the bucket list organization, i.e. which of several
// equal-gain cells is returned first.
type Order int

const (
	// LIFO returns the most recently inserted cell first (a stack).
	// §II.A: distinctly superior to FIFO because it enforces
	// "locality" — naturally clustered modules move sequentially.
	LIFO Order = iota
	// FIFO returns the least recently inserted cell first (a queue).
	FIFO
	// Random returns a uniformly random cell of the bucket.
	Random
)

func (o Order) String() string {
	switch o {
	case LIFO:
		return "LIFO"
	case FIFO:
		return "FIFO"
	case Random:
		return "RND"
	}
	return fmt.Sprintf("Order(%d)", int(o))
}

const nilCell = int32(-1)

// Structure is one gain-bucket array over cells 0..n-1. An FM
// bipartitioner keeps two (one per side); the k-way partitioner keeps
// K, one per target block, each holding every free cell outside that
// block keyed by its gain for moving there.
type Structure struct {
	order  Order
	rng    *rand.Rand
	offset int // bucket index = gain + offset
	heads  []int32
	tails  []int32 // maintained only for FIFO
	prev   []int32 // per cell
	next   []int32 // per cell
	bucket []int32 // per cell: bucket index, or -1 if absent
	maxIdx int     // highest possibly-non-empty bucket index
	size   int

	// shuffled is the grow-only scratch a Random cursor shuffles the
	// bucket it walks into.
	shuffled []int32
}

// New returns a Structure for numCells cells with gains in
// [-maxGain, maxGain] and the given bucket order. rng is required for
// Order Random and ignored otherwise.
func New(numCells, maxGain int, order Order, rng *rand.Rand) *Structure {
	s := &Structure{}
	s.Reset(numCells, maxGain, order, rng)
	return s
}

// Reset reinitializes the structure for a (possibly different) cell
// count, gain range and order, reusing the backing arrays when they
// are large enough. A reset structure is indistinguishable from a
// freshly built one; it is how the fm workspace reuses bucket memory
// across hierarchy levels instead of reallocating per level.
func (s *Structure) Reset(numCells, maxGain int, order Order, rng *rand.Rand) {
	if maxGain < 0 {
		maxGain = 0
	}
	s.order = order
	s.rng = rng
	s.offset = maxGain
	s.heads = growCells(s.heads, 2*maxGain+1)
	if order == FIFO {
		s.tails = growCells(s.tails, 2*maxGain+1)
	} else {
		s.tails = nil
	}
	s.prev = growCells(s.prev, numCells)
	s.next = growCells(s.next, numCells)
	s.bucket = growCells(s.bucket, numCells)
	for i := range s.heads {
		s.heads[i] = nilCell
		if s.tails != nil {
			s.tails[i] = nilCell
		}
	}
	for i := range s.bucket {
		s.bucket[i] = nilCell
	}
	s.maxIdx = -1
	s.size = 0
}

// growCells returns a slice of exactly length n, reusing buf's backing
// array when it has the capacity. Contents are unspecified; Reset
// refills every array it needs initialized.
func growCells(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	return buf[:n]
}

// Len returns the number of cells currently stored.
func (s *Structure) Len() int { return s.size }

// Contains reports whether cell v is in the structure.
func (s *Structure) Contains(v int32) bool { return s.bucket[v] != nilCell }

// Gain returns the gain key under which v is stored; v must be
// present.
func (s *Structure) Gain(v int32) int { return int(s.bucket[v]) - s.offset }

// MaxGain returns the range bound the structure was built with.
func (s *Structure) MaxGain() int { return s.offset }

// Insert adds cell v with the given gain. v must not already be
// present, and gain must lie within [-maxGain, maxGain].
func (s *Structure) Insert(v int32, gain int) {
	idx := s.index(gain)
	if s.bucket[v] != nilCell {
		panic(fmt.Sprintf("gainbucket: cell %d already present", v))
	}
	s.link(v, idx)
	s.size++
}

// Remove deletes cell v; v must be present.
func (s *Structure) Remove(v int32) {
	if s.bucket[v] == nilCell {
		panic(fmt.Sprintf("gainbucket: cell %d not present", v))
	}
	s.unlink(v)
	s.bucket[v] = nilCell
	s.size--
}

// Update moves cell v to a new gain, leaving the structure exactly as
// Remove followed by Insert would: v is relinked at the head (LIFO,
// Random) or tail (FIFO) of its new bucket even when the gain is
// unchanged. v must be present.
func (s *Structure) Update(v int32, newGain int) {
	if s.bucket[v] == nilCell {
		panic(fmt.Sprintf("gainbucket: cell %d not present", v))
	}
	idx := s.index(newGain)
	s.unlink(v)
	s.link(v, idx)
}

// index returns the bucket index of gain, panicking outside the range
// the structure was built with.
func (s *Structure) index(gain int) int {
	idx := gain + s.offset
	if idx < 0 || idx >= len(s.heads) {
		panic(fmt.Sprintf("gainbucket: gain %d outside [-%d,%d]", gain, s.offset, s.offset))
	}
	return idx
}

// link adds v to bucket idx: appended at the tail for FIFO, pushed at
// the head otherwise (Random randomizes on removal instead).
func (s *Structure) link(v int32, idx int) {
	s.bucket[v] = int32(idx)
	head := s.heads[idx]
	if s.order == FIFO && head != nilCell {
		tail := s.tails[idx]
		s.next[tail] = v
		s.prev[v] = tail
		s.next[v] = nilCell
		s.tails[idx] = v
	} else {
		s.prev[v] = nilCell
		s.next[v] = head
		if head != nilCell {
			s.prev[head] = v
		}
		s.heads[idx] = v
		if s.tails != nil && s.tails[idx] == nilCell {
			s.tails[idx] = v
		}
	}
	if idx > s.maxIdx {
		s.maxIdx = idx
	}
}

// unlink takes v out of its bucket's list; bucket[v] is left for the
// caller to overwrite.
func (s *Structure) unlink(v int32) {
	idx := s.bucket[v]
	p, n := s.prev[v], s.next[v]
	if p != nilCell {
		s.next[p] = n
	} else {
		s.heads[idx] = n
	}
	if n != nilCell {
		s.prev[n] = p
	} else if s.tails != nil {
		s.tails[idx] = p
	}
}

// Best returns the cell that the bucket organization selects from the
// highest non-empty bucket, without removing it, together with its
// gain. ok is false if the structure is empty.
func (s *Structure) Best() (v int32, gain int, ok bool) {
	idx := s.topIndex()
	if idx < 0 {
		return 0, 0, false
	}
	return s.pick(idx), idx - s.offset, true
}

// Iterate walks the cells of the highest non-empty buckets in
// decreasing gain order, in the organization's preference order
// within a bucket, calling f for each; iteration stops when f returns
// false. FM's lookahead tie-break scans with it; the move selectors of
// FM and the k-way engine walk a Cursor instead.
func (s *Structure) Iterate(f func(v int32, gain int) bool) {
	c := s.Walk()
	for v, g, ok := c.Next(); ok && f(v, g); v, g, ok = c.Next() {
	}
}

// Cursor walks a Structure in Iterate order one Next call at a time,
// so a scan needs no callback. The structure must not change while a
// cursor is in use, and a Random structure serves one cursor at a
// time: the cursor shuffles each bucket it enters into the
// structure's scratch buffer, with the draws Iterate makes.
type Cursor struct {
	s   *Structure
	idx int   // bucket being walked
	v   int32 // next cell to return, or nilCell at the bucket's end
	i   int   // Random: position of v in s.shuffled
}

// Walk returns a cursor before the first cell of the highest
// non-empty bucket.
func (s *Structure) Walk() Cursor {
	return Cursor{s: s, idx: s.topIndex() + 1, v: nilCell}
}

// Next returns the next cell and its gain; ok is false once every
// bucket has been walked.
func (c *Cursor) Next() (v int32, gain int, ok bool) {
	if c.v == nilCell && !c.enter() {
		return nilCell, 0, false
	}
	v = c.v
	if c.s.order == Random {
		c.i++
		c.v = nilCell
		if c.i < len(c.s.shuffled) {
			c.v = c.s.shuffled[c.i]
		}
	} else {
		c.v = c.s.next[v]
	}
	return v, c.idx - c.s.offset, true
}

// enter moves the cursor to the first cell of the next non-empty
// bucket down, shuffling that bucket first under Random order; false
// when none is left.
func (c *Cursor) enter() bool {
	s := c.s
	for c.idx--; c.idx >= 0; c.idx-- {
		head := s.heads[c.idx]
		if head == nilCell {
			continue
		}
		if s.order == Random {
			buf := s.shuffled[:0]
			for v := head; v != nilCell; v = s.next[v] {
				buf = append(buf, v)
			}
			s.rng.Shuffle(len(buf), func(i, j int) { buf[i], buf[j] = buf[j], buf[i] })
			s.shuffled = buf
			c.i = 0
			head = buf[0]
		}
		c.v = head
		return true
	}
	return false
}

// topIndex advances the max cursor down to the highest non-empty
// bucket and returns it, or -1 if empty.
func (s *Structure) topIndex() int {
	if s.size == 0 {
		s.maxIdx = -1
		return -1
	}
	for s.maxIdx >= 0 && s.heads[s.maxIdx] == nilCell {
		s.maxIdx--
	}
	return s.maxIdx
}

// pick selects a cell from bucket idx according to the organization.
func (s *Structure) pick(idx int) int32 {
	switch s.order {
	case FIFO:
		// Head is oldest because FIFO appends at tail.
		return s.heads[idx]
	case Random:
		n := 0
		choice := s.heads[idx]
		for v := s.heads[idx]; v != nilCell; v = s.next[v] {
			n++
			if s.rng.Intn(n) == 0 {
				choice = v
			}
		}
		return choice
	default: // LIFO: head is newest.
		return s.heads[idx]
	}
}

// Clear removes all cells (O(n) over stored cells).
func (s *Structure) Clear() {
	for idx := 0; idx <= s.maxIdx && idx < len(s.heads); idx++ {
		for v := s.heads[idx]; v != nilCell; {
			n := s.next[v]
			s.bucket[v] = nilCell
			v = n
		}
		s.heads[idx] = nilCell
		if s.tails != nil {
			s.tails[idx] = nilCell
		}
	}
	s.maxIdx = -1
	s.size = 0
}

// ConcatenateToZero implements the CLIP preprocessing step of Dutt &
// Deng (§II.B): all buckets are concatenated into a single list —
// starting with the bucket with the largest index — which is then
// installed in the bucket with gain 0; all other buckets become
// empty. Afterwards only gain *deltas* move cells, which multiplies
// the gain change of recently moved modules by "an infinite factor".
//
// The concatenation preserves decreasing-initial-gain order, so a
// LIFO pop (head removal) returns the highest-initial-gain cell first
// exactly as CLIP requires.
func (s *Structure) ConcatenateToZero() {
	var first, last int32 = nilCell, nilCell
	for idx := len(s.heads) - 1; idx >= 0; idx-- {
		v := s.heads[idx]
		if v == nilCell {
			continue
		}
		if first == nilCell {
			first = v
		} else {
			s.next[last] = v
			s.prev[v] = last
		}
		// Find the end of this bucket's list.
		for s.next[v] != nilCell {
			v = s.next[v]
		}
		last = v
		s.heads[idx] = nilCell
		if s.tails != nil {
			s.tails[idx] = nilCell
		}
	}
	zero := s.offset
	s.heads[zero] = first
	if s.tails != nil {
		s.tails[zero] = last
	}
	for v := first; v != nilCell; v = s.next[v] {
		s.bucket[v] = int32(zero)
	}
	if first != nilCell {
		s.prev[first] = nilCell
		s.maxIdx = zero
	} else {
		s.maxIdx = -1
	}
}

// CheckInvariants validates the internal linked structure; used by
// tests.
func (s *Structure) CheckInvariants() error {
	count := 0
	for idx := range s.heads {
		var last int32 = nilCell
		for v := s.heads[idx]; v != nilCell; v = s.next[v] {
			if s.bucket[v] != int32(idx) {
				return fmt.Errorf("cell %d in bucket list %d but bucket[v]=%d", v, idx, s.bucket[v])
			}
			if s.prev[v] != last {
				return fmt.Errorf("cell %d prev=%d, want %d", v, s.prev[v], last)
			}
			last = v
			count++
			if count > len(s.bucket) {
				return fmt.Errorf("cycle detected in bucket %d", idx)
			}
		}
		if s.tails != nil && s.tails[idx] != last {
			return fmt.Errorf("bucket %d tail=%d, want %d", idx, s.tails[idx], last)
		}
	}
	if count != s.size {
		return fmt.Errorf("size %d but %d cells linked", s.size, count)
	}
	for idx := s.maxIdx + 1; idx < len(s.heads); idx++ {
		if s.heads[idx] != nilCell {
			return fmt.Errorf("bucket %d above maxIdx %d is non-empty", idx, s.maxIdx)
		}
	}
	return nil
}
