package hypergraph

// BufferCaps reports the capacity of every buffer s owns, keyed by
// field name.
func (s *InduceWorkspace) BufferCaps() map[string]int {
	return map[string]int{
		"mark":      cap(s.mark),
		"pins":      cap(s.pins),
		"ends":      cap(s.ends),
		"weights":   cap(s.weights),
		"seen":      cap(s.seen),
		"cellStart": cap(s.cellStart),
	}
}

// BufferBytes is the total size of the buffers s owns.
func (s *InduceWorkspace) BufferBytes() uint64 {
	n := 4*(cap(s.mark)+cap(s.pins)+cap(s.ends)+cap(s.weights)+cap(s.cellStart)) + cap(s.seen)
	return uint64(n)
}
