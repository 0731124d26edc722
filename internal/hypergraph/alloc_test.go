package hypergraph_test

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"mlpart/internal/hypergraph"
	"mlpart/internal/netgen"
)

// TestReadHGRAllocations guards the allocation-lean reader: parsing a
// 2k-cell generated netlist (the size of an mlpartd job) takes a
// fixed few dozen allocations — the builder's and scanner's doubling
// growth plus the exact-size CSR arrays — never one per line, field
// or net.
func TestReadHGRAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	c := netgen.MustGenerate(netgen.Spec{Name: "alloc", Cells: 2000, Nets: 2100, Pins: 7000, Seed: 1997})
	var text strings.Builder
	if err := hypergraph.WriteHGR(&text, c.H); err != nil {
		t.Fatal(err)
	}
	in := text.String()
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := hypergraph.ReadHGR(strings.NewReader(in)); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations", allocs)
	if allocs > 100 {
		t.Errorf("ReadHGR of a %d-net text: %.0f allocations, want ≤ 100", c.H.NumNets(), allocs)
	}
}

// TestReadHGRTextSized pins the sizing of an in-memory parse: the
// Builder's pin buffer and net offsets are reserved once from the
// text, and the exact-size pin buffer becomes the hypergraph's, so
// ReadHGRText allocates the arrays the hypergraph keeps, one net-sized
// buffer and a few KiB of scanner and header scratch — no doubling
// growth and no pin copy.
func TestReadHGRTextSized(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	c := netgen.MustGenerate(netgen.Spec{Name: "alloc", Cells: 2000, Nets: 2100, Pins: 7000, Seed: 1997})
	var text bytes.Buffer
	if err := hypergraph.WriteHGR(&text, c.H); err != nil {
		t.Fatal(err)
	}
	in := text.Bytes()
	if _, err := hypergraph.ReadHGRText(in, hypergraph.Limits{}); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	h, err := hypergraph.ReadHGRText(in, hypergraph.Limits{})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	got := after.TotalAlloc - before.TotalAlloc
	kept := keptBytes(h)
	limit := kept + 4*uint64(h.NumNets()) + 16<<10
	t.Logf("%d bytes, hypergraph keeps %d", got, kept)
	if got > limit {
		t.Errorf("ReadHGRText of a %d-pin text: %d bytes, want ≤ %d (kept %d + one net buffer + 16 KiB)", h.NumPins(), got, limit, kept)
	}
}

// TestReadHGRHeaderReservesNothing pins that a header alone reserves
// nothing in proportion to its counts: the 17-byte text below declares
// 16M nets and 8M cells, within the default Limits, and must fail at
// net 1 through either reader having allocated under 1 MiB.
func TestReadHGRHeaderReservesNothing(t *testing.T) {
	const in = "16777216 8388608\n"
	for _, tc := range []struct {
		name string
		read func() (*hypergraph.Hypergraph, error)
	}{
		{"ReadHGRLimits", func() (*hypergraph.Hypergraph, error) {
			return hypergraph.ReadHGRLimits(strings.NewReader(in), hypergraph.Limits{})
		}},
		{"ReadHGRText", func() (*hypergraph.Hypergraph, error) {
			return hypergraph.ReadHGRText([]byte(in), hypergraph.Limits{})
		}},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := tc.read()
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "net 1") {
			t.Errorf("%s: error %v, want a failure at net 1", tc.name, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
			t.Errorf("%s: %d bytes allocated for a %d-byte header, want < 1 MiB", tc.name, got, len(in))
		}
	}
}

// TestWriteHGRAllocations guards the writer: numbers are formatted
// into one reused line buffer, so the allocation count does not grow
// with the pin count.
func TestWriteHGRAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	c := netgen.MustGenerate(netgen.Spec{Name: "alloc", Cells: 2000, Nets: 2100, Pins: 7000, Seed: 1997})
	var text strings.Builder
	allocs := testing.AllocsPerRun(5, func() {
		text.Reset()
		if err := hypergraph.WriteHGR(&text, c.H); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations", allocs)
	if allocs > 40 {
		t.Errorf("WriteHGR of a %d-pin hypergraph: %.0f allocations, want ≤ 40", c.H.NumPins(), allocs)
	}
}
