package hypergraph

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

// Fuzz targets for the file parsers: any input must either parse into
// a hypergraph that passes Validate, or return an error — never panic
// and never produce an invalid structure.

func FuzzReadHGR(f *testing.F) {
	f.Add("2 3\n1 2\n2 3\n")
	f.Add("1 2 10\n1 2\n4\n7\n")
	f.Add("% comment\n\n2 3\n1 2 3\n1 3\n")
	f.Add("")
	f.Add("0 0\n")
	f.Add("1 2 11\n1 2\n")
	f.Add("9999999 2\n1 2\n")
	// Resource-limit and overflow probes: headers claiming absurd
	// sizes, int64 area overflow, out-of-range net weights. All must
	// fail cleanly before proportional allocation.
	for _, seed := range hgrLimitProbes {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		h, err := ReadHGR(strings.NewReader(in))
		if err != nil {
			return
		}
		if err := h.Validate(); err != nil {
			t.Fatalf("parsed invalid hypergraph from %q: %v", in, err)
		}
		// Valid parses must round-trip.
		var buf bytes.Buffer
		if err := WriteHGR(&buf, h); err != nil {
			t.Fatalf("write after parse: %v", err)
		}
		h2, err := ReadHGR(&buf)
		if err != nil {
			t.Fatalf("reparse: %v", err)
		}
		if h2.NumCells() != h.NumCells() || h2.NumNets() != h.NumNets() || h2.NumPins() != h.NumPins() {
			t.Fatal("round trip changed sizes")
		}
	})
}

// hgrLimitProbes are headers and lines that must trip a resource
// limit or an overflow check before any proportional allocation.
var hgrLimitProbes = []string{
	"99999999999999999999 2\n",
	"2 99999999999999999999\n",
	"1000000000 1000000000\n1 2\n",
	"1 2 10\n1 2\n9223372036854775807\n9223372036854775807\n",
	"1 2 1\n99999999999 1 2\n",
	"1 2 1\n0 1 2\n",
}

// FuzzReadHGRMatchesReference holds ReadHGRLimits to the frozen
// string-based reader in reference_test.go: on every input, under the
// default limits and under small ones, both must fail with the same
// message or build identical hypergraphs. ReadHGRText, the same parser
// with its buffers sized from the text, must agree with both.
func FuzzReadHGRMatchesReference(f *testing.F) {
	for _, seed := range []string{
		"2 3\n1 2\n2 3\n",
		"2\t3\n1\t2 \t3\n\t2  3\t\n",
		"2 3\r\n1 2\r\n% comment\r\n2 3\r\n",
		"% comment\n\n2 3\n  % indented comment\n1 2 3\n1 3\n",
		"2 3\n1\u00a02 3\n\u00852\u00853\n",
		"2\u00a03\n1 2\n2 3\n",
		"1 2\n1\u00a0\u00852\n",
		"3 4\n1 1 2\n3\n4 4\n",
		"2 3\n2 1 2 1 3\n3 3 3\n",
		"2 3 1\n5 1 2\n1 2 3\n",
		"2 3 10\n1 2\n2 3\n4\n0\n 7 \n",
		"2 3 11\n2 1 2\n3 2 3\n4\n5\n6\n",
		"2 3 01\n2 1 2\n3 2 3\n",
		"1 2 00\n1 2\n",
		"1 2 7\n1 2\n",
		"1 2 1\n\n",
		"1 2 1\n3\n",
		"+2 03\n+1 2\n-1 3\n",
		"1 3\n1 x\n",
		"1 3 10\n1 2\n1\n2 3\n",
		"2 3\n1 2\n",
		"",
		"0 0\n",
		"1 2 3 4\n",
		"1 2\n1 2\xff\n",
	} {
		f.Add(seed)
	}
	for _, seed := range hgrLimitProbes {
		f.Add(seed)
	}
	small := Limits{MaxCells: 8, MaxNets: 4, MaxPins: 12}
	f.Fuzz(func(t *testing.T, in string) {
		for _, lim := range []Limits{{}, small} {
			got, err := ReadHGRLimits(strings.NewReader(in), lim)
			want, wantErr := refReadHGRLimits(strings.NewReader(in), lim)
			if (err != nil) != (wantErr != nil) || (err != nil && err.Error() != wantErr.Error()) {
				t.Fatalf("%+v on %q: error %v, reference %v", lim, in, err, wantErr)
			}
			if err != nil {
				continue
			}
			if diff := sameHypergraph(got, want); diff != "" {
				t.Fatalf("%+v on %q: %s differs from the reference", lim, in, diff)
			}
		}
		for _, lim := range []Limits{{}, small} {
			got, err := ReadHGRText([]byte(in), lim)
			want, wantErr := ReadHGRLimits(strings.NewReader(in), lim)
			if (err != nil) != (wantErr != nil) || (err != nil && err.Error() != wantErr.Error()) {
				t.Fatalf("%+v on %q: ReadHGRText error %v, ReadHGRLimits %v", lim, in, err, wantErr)
			}
			if err == nil {
				if diff := sameHypergraph(got, want); diff != "" {
					t.Fatalf("%+v on %q: ReadHGRText %s differs from ReadHGRLimits", lim, in, diff)
				}
			}
		}
	})
}

// sameHypergraph names the first field in which a and b differ, or
// returns "".
func sameHypergraph(a, b *Hypergraph) string {
	switch {
	case a.numCells != b.numCells || a.numNets != b.numNets:
		return "size"
	case !slices.Equal(a.area, b.area):
		return "area"
	case a.totalArea != b.totalArea || a.minArea != b.minArea || a.maxArea != b.maxArea:
		return "area totals"
	case !slices.Equal(a.netStart, b.netStart) || !slices.Equal(a.netPins, b.netPins):
		return "net CSR"
	case !slices.Equal(a.cellStart, b.cellStart) || !slices.Equal(a.cellNets, b.cellNets):
		return "cell CSR"
	case (a.netWeight == nil) != (b.netWeight == nil) || !slices.Equal(a.netWeight, b.netWeight):
		return "net weights"
	case a.ContentHash() != b.ContentHash():
		return "content hash"
	}
	return ""
}

func FuzzReadNetD(f *testing.F) {
	f.Add("0\n5\n2\n4\n2\na0 s\na1 l\np1 l\na1 s\na2 l\n")
	f.Add("0\n2\n1\n2\n0\na0 s\np1 l\n")
	f.Add("")
	f.Add("0\n0\n0\n1\n-1\n")
	f.Add("0\n2\n1\n2\n0\na0 s I\np1 l O\n")
	// Headers claiming more pins/cells than any sane netlist, or more
	// pins than the file provides.
	f.Add("0\n99999999999999999999\n1\n2\n0\na0 s\np1 l\n")
	f.Add("0\n2\n1\n99999999999999999999\n0\na0 s\np1 l\n")
	f.Add("0\n2\n1\n2\n0\na0 s\np1 l\na1 l\n")
	// A duplicated pad/pin line inside one net: the duplicate pin
	// must be merged by the builder (never doubling the pin count or
	// corrupting the CSR), and the pad flag must be set exactly once.
	f.Add("0\n5\n2\n4\n2\na0 s\np1 l\np1 l\na1 s\na2 l\n")
	f.Fuzz(func(t *testing.T, in string) {
		c, err := ReadNetD(strings.NewReader(in), nil)
		if err != nil {
			return
		}
		if err := c.H.Validate(); err != nil {
			t.Fatalf("parsed invalid hypergraph from %q: %v", in, err)
		}
		if len(c.Pads) != c.H.NumCells() {
			t.Fatal("pads length mismatch")
		}
	})
}

func FuzzReadPartition(f *testing.F) {
	f.Add("0\n1\n0\n", 3)
	f.Add("", 0)
	f.Add("2\n2\n1\n0\n", 4)
	// Non-contiguous block indices (block 1 empty below max 2), an
	// index beyond int32, and more lines than cells.
	f.Add("0\n2\n0\n", 3)
	f.Add("4294967296\n", 1)
	f.Add("0\n0\n0\n0\n", 2)
	f.Fuzz(func(t *testing.T, in string, n int) {
		if n < 0 || n > 1<<16 {
			return
		}
		p, err := ReadPartition(strings.NewReader(in), n)
		if err != nil {
			return
		}
		if err := p.Validate(n); err != nil {
			t.Fatalf("parsed invalid partition from %q: %v", in, err)
		}
	})
}
