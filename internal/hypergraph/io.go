package hypergraph

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"
)

// The .hgr format is the hMETIS hypergraph format commonly used for
// circuit partitioning benchmarks:
//
//	<numNets> <numCells> [fmt]
//	<pin> <pin> ...        (one line per net, 1-based cell indices)
//	[<area>]               (one line per cell, iff fmt contains the
//	                        weight flag 10 or 11)
//
// Lines starting with '%' are comments. All four fmt values are
// supported: "" (no weights), "1" (net weights lead each net line),
// "10" (cell weights), "11" (both).

// WriteHGR writes h in hMETIS .hgr format. Cell areas are emitted
// (fmt 10) unless every cell has unit area.
func WriteHGR(w io.Writer, h *Hypergraph) error {
	bw := bufio.NewWriter(w)
	unit := true
	for v := 0; v < h.NumCells(); v++ {
		if h.Area(v) != 1 {
			unit = false
			break
		}
	}
	weighted := h.Weighted()
	switch {
	case unit && !weighted:
		fmt.Fprintf(bw, "%d %d\n", h.NumNets(), h.NumCells())
	case unit && weighted:
		fmt.Fprintf(bw, "%d %d 1\n", h.NumNets(), h.NumCells())
	case !unit && !weighted:
		fmt.Fprintf(bw, "%d %d 10\n", h.NumNets(), h.NumCells())
	default:
		fmt.Fprintf(bw, "%d %d 11\n", h.NumNets(), h.NumCells())
	}
	// Each line is formatted into one reused buffer: no allocation
	// per number.
	var line []byte
	for e := 0; e < h.NumNets(); e++ {
		line = line[:0]
		if weighted {
			line = strconv.AppendInt(line, int64(h.NetWeight(e)), 10)
			line = append(line, ' ')
		}
		for i, p := range h.Pins(e) {
			if i > 0 {
				line = append(line, ' ')
			}
			line = strconv.AppendInt(line, int64(p)+1, 10)
		}
		line = append(line, '\n')
		bw.Write(line)
	}
	if !unit {
		for v := 0; v < h.NumCells(); v++ {
			line = strconv.AppendInt(line[:0], h.Area(v), 10)
			bw.Write(append(line, '\n'))
		}
	}
	return bw.Flush()
}

// maxLineBytes is the longest line the parsers accept. Their scanner
// buffers start small and grow on demand up to it, so parsing
// allocates in proportion to the input, not to the limit.
const maxLineBytes = 1 << 24

// ReadHGR parses an hMETIS .hgr hypergraph under DefaultLimits.
func ReadHGR(r io.Reader) (*Hypergraph, error) {
	return ReadHGRLimits(r, Limits{})
}

// ReadHGRLimits parses an hMETIS .hgr hypergraph, rejecting inputs
// that exceed lim (zero fields of lim select the defaults). Headers
// over the limits fail before any proportional allocation.
//
// Lines are read and split in place as bytes, pins are appended
// straight to the Builder's flat buffer, and integers are parsed
// without a string per field, so a parse allocates a few dozen
// objects whatever the net count. The net offsets are sized once from
// the header's net count, as the cell areas are from its cell count.
func ReadHGRLimits(r io.Reader, lim Limits) (*Hypergraph, error) {
	return readHGR(r, lim, textSize{fields: -1, lines: -1})
}

// ReadHGRText is ReadHGRLimits over .hgr text already held in memory.
// A count of the text's fields and lines bounds its pins and nets, so
// the Builder's buffers are reserved once at that size instead of
// growing by doubling, and never beyond what the text can hold. When
// the count is exact — no comments, duplicate pins or dropped nets —
// the pin buffer becomes the hypergraph's own instead of being copied.
func ReadHGRText(text []byte, lim Limits) (*Hypergraph, error) {
	return readHGR(bytes.NewReader(text), lim, countText(text))
}

// textSize bounds what an in-memory .hgr text can hold: its
// white-space separated fields and its lines. -1 means unknown (a
// stream).
type textSize struct {
	fields, lines int
}

// countText counts the ASCII-white-space separated fields and the
// lines of text. A line with a Unicode space may split into more
// fields than counted; the count is only a reservation, and appends
// grow past it.
func countText(text []byte) textSize {
	n := textSize{lines: 1}
	inField := false
	for _, c := range text {
		if c == '\n' {
			n.lines++
		}
		if asciiSpace[c] {
			inField = false
		} else if !inField {
			inField = true
			n.fields++
		}
	}
	return n
}

// readHGR is the one .hgr parser; size, when known, caps the Builder's
// up-front reservations.
func readHGR(r io.Reader, lim Limits, size textSize) (*Hypergraph, error) {
	lim = lim.normalize()
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, maxLineBytes)
	line, err := nextLine(sc)
	if err != nil {
		return nil, fmt.Errorf("hgr: missing header: %w", err)
	}
	fields := appendFields(nil, line)
	if len(fields) < 2 || len(fields) > 3 {
		return nil, fmt.Errorf("hgr: malformed header %q", line)
	}
	numNets, ok := atoi(fields[0])
	if !ok || numNets < 0 {
		return nil, fmt.Errorf("hgr: bad net count %q", fields[0])
	}
	numCells, ok := atoi(fields[1])
	if !ok || numCells < 0 {
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
		switch string(fields[2]) {
		case "0", "00":
			// no weights
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
	b := NewBuilder(numCells)
	nets := numNets
	if size.lines >= 0 {
		nets = min(nets, size.lines-1) // a net takes a line after the header
	}
	b.netEnd = make([]int32, 0, nets)
	if size.fields >= 0 {
		// The text's fields less the header's and the declared
		// weights: for a well-formed text without comments, exactly
		// its pins.
		pins := size.fields - len(fields)
		if netWeights {
			pins -= numNets
		}
		if cellWeights {
			pins -= numCells
		}
		b.pins = make([]int32, 0, max(0, min(pins, lim.MaxPins)))
		b.ownsPins = true
	}
	totalPins := 0
	for e := 0; e < numNets; e++ {
		line, err := nextLine(sc)
		if err != nil {
			return nil, fmt.Errorf("hgr: net %d: %w", e+1, err)
		}
		fields = appendFields(fields[:0], line)
		pinFields := fields
		weight := int32(1)
		if netWeights {
			if len(fields) == 0 {
				return nil, fmt.Errorf("hgr: net %d: missing weight", e+1)
			}
			w, ok := atoi(fields[0])
			if !ok || w < 1 || w > math.MaxInt32 {
				return nil, fmt.Errorf("hgr: net %d: bad weight %q", e+1, fields[0])
			}
			weight = int32(w)
			pinFields = fields[1:]
		}
		totalPins += len(pinFields)
		if err := lim.checkPins(totalPins); err != nil {
			return nil, fmt.Errorf("hgr: net %d: %w", e+1, err)
		}
		for _, f := range pinFields {
			p, ok := atoi(f)
			if !ok {
				return nil, fmt.Errorf("hgr: net %d: bad pin %q", e+1, f)
			}
			if p < 1 || p > numCells {
				return nil, fmt.Errorf("hgr: net %d: pin %d out of range [1,%d]", e+1, p, numCells)
			}
			b.pins = append(b.pins, int32(p-1))
		}
		b.endNet(weight)
	}
	if cellWeights {
		for v := 0; v < numCells; v++ {
			line, err := nextLine(sc)
			if err != nil {
				return nil, fmt.Errorf("hgr: weight of cell %d: %w", v+1, err)
			}
			a, ok := parseInt64(line)
			if !ok || a < 0 {
				return nil, fmt.Errorf("hgr: bad weight %q for cell %d", line, v+1)
			}
			b.SetArea(v, a)
		}
	}
	return b.Build()
}

// nextLine returns the next line that is neither blank nor a '%'
// comment, trimmed of surrounding white space. The slice aliases the
// scanner's buffer and is valid until the next Scan.
func nextLine(sc *bufio.Scanner) ([]byte, error) {
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 || line[0] == '%' {
			continue
		}
		return line, nil
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return nil, io.ErrUnexpectedEOF
}

// asciiSpace marks the ASCII bytes unicode.IsSpace accepts.
var asciiSpace = [256]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// appendFields appends the white-space separated fields of line to
// dst, splitting exactly as strings.Fields does. A line with a
// non-ASCII byte goes through bytes.Fields, which knows the Unicode
// spaces (U+0085, U+00A0, ...); an ASCII line is split in place.
func appendFields(dst [][]byte, line []byte) [][]byte {
	for _, c := range line {
		if c >= utf8.RuneSelf {
			return append(dst, bytes.Fields(line)...)
		}
	}
	for i := 0; i < len(line); {
		if asciiSpace[line[i]] {
			i++
			continue
		}
		j := i + 1
		for j < len(line) && !asciiSpace[line[j]] {
			j++
		}
		dst = append(dst, line[i:j:j])
		i = j
	}
	return dst
}

// atoi is strconv.Atoi for a byte slice, without the string.
func atoi(s []byte) (int, bool) {
	v, ok := parseInt64(s)
	if !ok || v < math.MinInt || v > math.MaxInt {
		return 0, false
	}
	return int(v), true
}

// parseInt64 is strconv.ParseInt(s, 10, 64) for a byte slice: an
// optional sign, then one or more decimal digits, rejecting overflow.
func parseInt64(s []byte) (int64, bool) {
	neg := false
	if len(s) > 0 && (s[0] == '+' || s[0] == '-') {
		neg = s[0] == '-'
		s = s[1:]
	}
	if len(s) == 0 {
		return 0, false
	}
	const limit = uint64(1) << 63 // |MinInt64|
	var n uint64
	for _, c := range s {
		if c < '0' || c > '9' || n > limit/10 {
			return 0, false
		}
		n = n*10 + uint64(c-'0')
		if n > limit {
			return 0, false
		}
	}
	if neg {
		return -int64(n), true
	}
	if n == limit {
		return 0, false
	}
	return int64(n), true
}

// WritePartition writes a partition as one block index per line
// (cell order), the format used by hMETIS and friends.
func WritePartition(w io.Writer, p *Partition) error {
	bw := bufio.NewWriter(w)
	for _, k := range p.Part {
		fmt.Fprintf(bw, "%d\n", k)
	}
	return bw.Flush()
}

// ReadPartition reads a one-block-index-per-line partition for a
// hypergraph with numCells cells; K is inferred as max+1. The block
// indices must be contiguous: every block in [0, max] must be
// non-empty, so that the inferred K matches the number of blocks
// actually present (a gap almost always means a corrupt or mismatched
// file). Reading stops with an error as soon as the file exceeds
// numCells entries.
func ReadPartition(r io.Reader, numCells int) (*Partition, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	p := &Partition{Part: make([]int32, 0, numCells)}
	maxK := int32(0)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		if len(p.Part) >= numCells {
			return nil, fmt.Errorf("partition: file has more than the expected %d cells", numCells)
		}
		k, err := strconv.Atoi(line)
		if err != nil || k < 0 || k > math.MaxInt32-1 {
			return nil, fmt.Errorf("partition: bad block index %q on line %d", line, len(p.Part)+1)
		}
		p.Part = append(p.Part, int32(k))
		if int32(k) > maxK {
			maxK = int32(k)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(p.Part) != numCells {
		return nil, fmt.Errorf("partition: file has %d cells, expected %d", len(p.Part), numCells)
	}
	if numCells == 0 {
		p.K = 1
		return p, nil
	}
	// Contiguity: with numCells entries at most numCells distinct
	// blocks can be non-empty, so maxK ≥ numCells proves a gap without
	// allocating a count array sized by a hostile index.
	if int(maxK) >= numCells {
		return nil, fmt.Errorf("partition: block index %d with only %d cells leaves empty blocks below it", maxK, numCells)
	}
	count := make([]int32, int(maxK)+1)
	for _, k := range p.Part {
		count[k]++
	}
	for b, c := range count {
		if c == 0 {
			return nil, fmt.Errorf("partition: block %d is empty; block indices must be contiguous in [0,%d]", b, maxK)
		}
	}
	p.K = int(maxK) + 1
	return p, nil
}
