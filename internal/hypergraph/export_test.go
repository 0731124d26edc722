package hypergraph

import "strconv"

// BufferCaps reports the capacity of every buffer s owns, keyed by
// field name (per-range buffers suffixed with the range index). The
// per-range pins, lens and weights slices are windows of pinBuf,
// lenBuf and weightBuf and own no memory of their own.
func (s *InduceWorkspace) BufferCaps() map[string]int {
	caps := map[string]int{
		"ranges":    cap(s.mark),
		"bases":     cap(s.bases),
		"pinBuf":    cap(s.pinBuf),
		"lenBuf":    cap(s.lenBuf),
		"weightBuf": cap(s.weightBuf),
		"seen":      cap(s.seen),
	}
	for w := range s.mark {
		caps["mark"+strconv.Itoa(w)] = cap(s.mark[w])
		caps["counts"+strconv.Itoa(w)] = cap(s.counts[w])
	}
	return caps
}

// BufferBytes is the total size of the buffers s owns.
func (s *InduceWorkspace) BufferBytes() uint64 {
	n := 4*(cap(s.pinBuf)+cap(s.lenBuf)+cap(s.weightBuf)) + cap(s.seen) + 8*cap(s.bases)
	for w := range s.mark {
		n += 4 * (cap(s.mark[w]) + cap(s.counts[w]))
	}
	return uint64(n)
}
