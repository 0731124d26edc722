package gainbucket

// Differential tests: every bucket organization against a naive
// reference implementation (a flat slice of entries with insertion
// sequence numbers) over randomized insert/update/remove/extract-max
// sequences, 1000 seeded trials per organization. Each trial runs the
// same ops on a fresh New structure and on one long-lived structure
// recycled with Reset, so the workspace-reuse path is held to exactly
// the fresh-allocation behavior.

import (
	"math/rand"
	"testing"
)

// refStructure is the naive reference: a slice scanned linearly for
// every query. seq numbers record insertion order; Update re-inserts
// (new seq), matching Structure.Update's Remove+Insert.
type refStructure struct {
	entries map[int32]refEntry
	nextSeq int
}

type refEntry struct {
	gain int
	seq  int
}

func newRef() *refStructure {
	return &refStructure{entries: map[int32]refEntry{}}
}

func (r *refStructure) insert(v int32, gain int) {
	r.entries[v] = refEntry{gain: gain, seq: r.nextSeq}
	r.nextSeq++
}

func (r *refStructure) remove(v int32) { delete(r.entries, v) }

func (r *refStructure) update(v int32, gain int) {
	r.remove(v)
	r.insert(v, gain)
}

func (r *refStructure) len() int { return len(r.entries) }

// maxGain returns the highest stored gain; ok is false when empty.
func (r *refStructure) maxGain() (int, bool) {
	first := true
	best := 0
	for _, e := range r.entries {
		if first || e.gain > best {
			best = e.gain
			first = false
		}
	}
	return best, !first
}

// best returns the cell the given organization must select: highest
// gain, ties broken by insertion sequence (newest for LIFO, oldest
// for FIFO). Meaningless for Random.
func (r *refStructure) best(order Order) (int32, int, bool) {
	mg, ok := r.maxGain()
	if !ok {
		return 0, 0, false
	}
	var bestV int32
	bestSeq := -1
	for v, e := range r.entries {
		if e.gain != mg {
			continue
		}
		if bestSeq < 0 ||
			(order == LIFO && e.seq > bestSeq) ||
			(order == FIFO && e.seq < bestSeq) {
			bestV, bestSeq = v, e.seq
		}
	}
	return bestV, mg, true
}

// membersAtMax returns the set of cells holding the maximum gain.
func (r *refStructure) membersAtMax() map[int32]bool {
	mg, ok := r.maxGain()
	out := map[int32]bool{}
	if !ok {
		return out
	}
	for v, e := range r.entries {
		if e.gain == mg {
			out[v] = true
		}
	}
	return out
}

// TestDifferentialAgainstNaiveReference is the table-driven
// differential suite: 1000 seeded random op sequences per
// organization.
func TestDifferentialAgainstNaiveReference(t *testing.T) {
	const (
		trials   = 1000
		numCells = 16
		maxGain  = 8
		opsPer   = 60
	)
	for _, order := range []Order{LIFO, FIFO, Random} {
		t.Run(order.String(), func(t *testing.T) {
			// One recycled structure across all trials: Reset must make
			// it indistinguishable from the fresh one built per trial.
			recycled := New(1, 0, order, nil)
			for trial := 0; trial < trials; trial++ {
				seed := int64(trial)
				ops := rand.New(rand.NewSource(seed))
				fresh := New(numCells, maxGain, order, rand.New(rand.NewSource(seed+1)))
				recycled.Reset(numCells, maxGain, order, rand.New(rand.NewSource(seed+1)))
				ref := newRef()

				for op := 0; op < opsPer; op++ {
					v := int32(ops.Intn(numCells)) //mllint:ignore unchecked-narrow small test cell id
					switch {
					case ops.Intn(4) == 0 && ref.len() > 0:
						// extract-max: remove whatever Best selects.
						bv, bg, ok := fresh.Best()
						rv, rg, rok := recycled.Best()
						if !ok || !rok {
							t.Fatalf("trial %d op %d: Best empty with %d cells", trial, op, ref.len())
						}
						wantG, _ := ref.maxGain()
						if bg != wantG || rg != wantG {
							t.Fatalf("trial %d op %d: Best gain %d/%d, reference max %d", trial, op, bg, rg, wantG)
						}
						if order != Random {
							wv, _, _ := ref.best(order)
							if bv != wv {
								t.Fatalf("trial %d op %d: fresh Best cell %d, reference %d", trial, op, bv, wv)
							}
						}
						if !ref.membersAtMax()[bv] || !ref.membersAtMax()[rv] {
							t.Fatalf("trial %d op %d: Best returned a cell outside the max bucket", trial, op)
						}
						fresh.Remove(bv)
						recycled.Remove(rv)
						ref.remove(bv)
						if order != Random && bv != rv {
							t.Fatalf("trial %d op %d: fresh/recycled diverge: %d vs %d", trial, op, bv, rv)
						}
						if order == Random && bv != rv {
							// Both removals are legal max-bucket picks but
							// the mirrored states would drift; re-sync by
							// removing the counterpart too.
							fresh.Remove(rv)
							recycled.Remove(bv)
							ref.remove(rv)
						}
					case fresh.Contains(v) && ops.Intn(2) == 0:
						fresh.Remove(v)
						recycled.Remove(v)
						ref.remove(v)
					case fresh.Contains(v):
						g := ops.Intn(2*maxGain+1) - maxGain
						fresh.Update(v, g)
						recycled.Update(v, g)
						ref.update(v, g)
					default:
						g := ops.Intn(2*maxGain+1) - maxGain
						fresh.Insert(v, g)
						recycled.Insert(v, g)
						ref.insert(v, g)
					}

					if fresh.Len() != ref.len() || recycled.Len() != ref.len() {
						t.Fatalf("trial %d op %d: Len %d/%d, reference %d", trial, op, fresh.Len(), recycled.Len(), ref.len())
					}
					for c := int32(0); c < numCells; c++ {
						e, in := ref.entries[c]
						if fresh.Contains(c) != in || recycled.Contains(c) != in {
							t.Fatalf("trial %d op %d: Contains(%d) diverges from reference %v", trial, op, c, in)
						}
						if in && (fresh.Gain(c) != e.gain || recycled.Gain(c) != e.gain) {
							t.Fatalf("trial %d op %d: Gain(%d) = %d/%d, reference %d",
								trial, op, c, fresh.Gain(c), recycled.Gain(c), e.gain)
						}
					}
				}
				if err := fresh.CheckInvariants(); err != nil {
					t.Fatalf("trial %d: fresh invariants: %v", trial, err)
				}
				if err := recycled.CheckInvariants(); err != nil {
					t.Fatalf("trial %d: recycled invariants: %v", trial, err)
				}
			}
		})
	}
}

// TestDifferentialIterateOrder pins Iterate's order against the
// reference after inserts and in-place Updates: decreasing gain across
// buckets; within a bucket newest first for LIFO, oldest first for
// FIFO, and for Random the newest-first list shuffled with one
// rng.Shuffle per bucket entered, so an early stop leaves the RNG
// exactly where the collect-and-shuffle walk it replaced left it.
func TestDifferentialIterateOrder(t *testing.T) {
	for _, order := range []Order{LIFO, FIFO, Random} {
		for trial := 0; trial < 200; trial++ {
			ops := rand.New(rand.NewSource(int64(trial)))
			s := New(12, 6, order, rand.New(rand.NewSource(int64(trial)+1)))
			refRng := rand.New(rand.NewSource(int64(trial) + 1))
			ref := newRef()
			for i := 0; i < 16; i++ {
				v := int32(ops.Intn(12)) //mllint:ignore unchecked-narrow small test cell id
				g := ops.Intn(13) - 6
				if s.Contains(v) {
					s.Update(v, g)
					ref.update(v, g)
					continue
				}
				s.Insert(v, g)
				ref.insert(v, g)
			}
			stop := 1 + ops.Intn(ref.len())
			var got []int32
			s.Iterate(func(v int32, gain int) bool {
				if gain != ref.entries[v].gain {
					t.Fatalf("%v trial %d: Iterate gain %d for cell %d, reference %d",
						order, trial, gain, v, ref.entries[v].gain)
				}
				got = append(got, v)
				return len(got) < stop
			})
			// Reference order: sort by (gain desc, seq) with the
			// organization's tie direction, then shuffle each bucket
			// the walk entered for Random.
			want := make([]int32, 0, ref.len())
			for v := range ref.entries {
				want = append(want, v)
			}
			for i := 1; i < len(want); i++ {
				for j := i; j > 0; j-- {
					a, b := ref.entries[want[j-1]], ref.entries[want[j]]
					swap := false
					if a.gain < b.gain {
						swap = true
					} else if a.gain == b.gain {
						if order != FIFO && a.seq < b.seq {
							swap = true
						}
						if order == FIFO && a.seq > b.seq {
							swap = true
						}
					}
					if swap {
						want[j-1], want[j] = want[j], want[j-1]
					} else {
						break
					}
				}
			}
			if order == Random {
				for lo := 0; lo < stop; {
					hi := lo
					for hi < len(want) && ref.entries[want[hi]].gain == ref.entries[want[lo]].gain {
						hi++
					}
					bucket := want[lo:hi]
					refRng.Shuffle(len(bucket), func(i, j int) { bucket[i], bucket[j] = bucket[j], bucket[i] })
					lo = hi
				}
				if a, b := s.rng.Int63(), refRng.Int63(); a != b {
					t.Fatalf("%v trial %d: RNG out of step after Iterate: %d vs %d", order, trial, a, b)
				}
			}
			want = want[:stop]
			if len(got) != len(want) {
				t.Fatalf("%v trial %d: Iterate visited %d cells, want %d", order, trial, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%v trial %d: Iterate order %v, reference %v", order, trial, got, want)
				}
			}
			if err := s.CheckInvariants(); err != nil {
				t.Fatalf("%v trial %d: %v", order, trial, err)
			}
		}
	}
}
