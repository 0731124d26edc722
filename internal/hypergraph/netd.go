package hypergraph

// The .netD/.are interchange format of the ACM/SIGDA benchmark suite
// (the native format of the Table-I circuits as distributed by the
// CAD Benchmarking Laboratory). A .netD file is
//
//	0
//	<numPins>
//	<numNets>
//	<numModules>
//	<padOffset>
//	<module> s|l [I|O|B]     one line per pin; 's' starts a new net
//	...
//
// Modules are named a0, a1, … for cells and p1, p2, … for I/O pads;
// padOffset is the highest cell index (modules after it are pads).
// The companion .are file lists "<module> <area>" per line. This
// implementation accepts both conventions for the optional direction
// letter and tolerates missing .are files (unit areas).

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// NetDCircuit is a parsed .netD netlist: the hypergraph plus the pad
// flags and the original module names.
type NetDCircuit struct {
	H    *Hypergraph
	Pads []bool
}

// ReadNetD parses a .netD netlist and an optional .are area file
// (pass nil for unit areas) under DefaultLimits.
func ReadNetD(netR io.Reader, areR io.Reader) (*NetDCircuit, error) {
	return ReadNetDLimits(netR, areR, Limits{})
}

// ReadNetDLimits is ReadNetD with explicit resource limits (zero
// fields of lim select the defaults). Headers over the limits fail
// before any proportional allocation, and a pin section longer than
// the header's pin count aborts early.
func ReadNetDLimits(netR io.Reader, areR io.Reader, lim Limits) (*NetDCircuit, error) {
	lim = lim.normalize()
	sc := bufio.NewScanner(netR)
	sc.Buffer(nil, maxLineBytes)
	header := make([]int, 0, 5)
	for len(header) < 5 {
		line, err := nextLine(sc)
		if err != nil {
			return nil, fmt.Errorf("netD: header: %w", err)
		}
		x, ok := atoi(line)
		if !ok {
			return nil, fmt.Errorf("netD: bad header line %q", line)
		}
		header = append(header, x)
	}
	if header[0] != 0 {
		return nil, fmt.Errorf("netD: first header line must be 0, got %d", header[0])
	}
	numPins, numNets, numModules, padOffset := header[1], header[2], header[3], header[4]
	if numPins < 0 || numNets < 0 || numModules <= 0 {
		return nil, fmt.Errorf("netD: nonsensical header %v", header)
	}
	if padOffset < -1 || padOffset >= numModules {
		return nil, fmt.Errorf("netD: pad offset %d outside [-1,%d)", padOffset, numModules)
	}
	if err := lim.checkCells(numModules); err != nil {
		return nil, fmt.Errorf("netD: %w", err)
	}
	if err := lim.checkNets(numNets); err != nil {
		return nil, fmt.Errorf("netD: %w", err)
	}
	if err := lim.checkPins(numPins); err != nil {
		return nil, fmt.Errorf("netD: %w", err)
	}

	names := make(map[string]int32, numModules)
	idOf := func(name string) (int32, error) {
		if id, ok := names[name]; ok {
			return id, nil
		}
		id, err := parseModuleName(name, padOffset, numModules)
		if err != nil {
			return 0, err
		}
		names[name] = id
		return id, nil
	}

	b := NewBuilder(numModules)
	pads := make([]bool, numModules)
	var current []int32
	flush := func() {
		if len(current) >= 2 {
			b.AddNet32(current)
		}
		current = current[:0]
	}
	pinCount := 0
	for {
		text, err := nextLine(sc)
		if err == io.ErrUnexpectedEOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("netD: %w", err)
		}
		line := string(text)
		fields := strings.Fields(line)
		if len(fields) < 2 || len(fields) > 3 {
			return nil, fmt.Errorf("netD: malformed pin line %q", line)
		}
		id, err := idOf(fields[0])
		if err != nil {
			return nil, err
		}
		if strings.HasPrefix(fields[0], "p") {
			pads[id] = true
		}
		b.SetName(int(id), fields[0])
		switch fields[1] {
		case "s":
			flush()
			current = append(current, id)
		case "l":
			if len(current) == 0 {
				return nil, fmt.Errorf("netD: continuation pin %q before any net start", line)
			}
			current = append(current, id)
		default:
			return nil, fmt.Errorf("netD: pin line %q must be marked s or l", line)
		}
		pinCount++
		if pinCount > numPins {
			return nil, fmt.Errorf("netD: header claims %d pins, file has more", numPins)
		}
	}
	flush()
	if pinCount != numPins {
		return nil, fmt.Errorf("netD: header claims %d pins, file has %d", numPins, pinCount)
	}
	// Areas.
	if areR != nil {
		asc := bufio.NewScanner(areR)
		asc.Buffer(nil, maxLineBytes)
		for asc.Scan() {
			line := strings.TrimSpace(asc.Text())
			if line == "" || strings.HasPrefix(line, "%") {
				continue
			}
			fields := strings.Fields(line)
			if len(fields) != 2 {
				return nil, fmt.Errorf("are: malformed line %q", line)
			}
			id, err := idOf(fields[0])
			if err != nil {
				return nil, err
			}
			a, err := strconv.ParseInt(fields[1], 10, 64)
			if err != nil || a < 0 {
				return nil, fmt.Errorf("are: bad area %q for %s", fields[1], fields[0])
			}
			b.SetArea(int(id), a)
		}
		if err := asc.Err(); err != nil {
			return nil, err
		}
	}
	h, err := b.Build()
	if err != nil {
		return nil, err
	}
	if h.NumNets() > numNets {
		return nil, fmt.Errorf("netD: header claims %d nets, file has %d", numNets, h.NumNets())
	}
	return &NetDCircuit{H: h, Pads: pads}, nil
}

// parseModuleName maps "aN" (cell) or "pN" (pad) to a module index:
// cells aN occupy indices 0..padOffset, pads pN occupy padOffset+1
// onward (pN is 1-based, per the benchmark convention). The index is
// returned as the CSR's int32 pin type; the range checks against
// numModules (itself capped by Limits) make the narrowing exact.
func parseModuleName(name string, padOffset, numModules int) (int32, error) {
	if len(name) < 2 {
		return 0, fmt.Errorf("netD: bad module name %q", name)
	}
	n, err := strconv.Atoi(name[1:])
	if err != nil {
		return 0, fmt.Errorf("netD: bad module name %q", name)
	}
	switch name[0] {
	case 'a':
		if n < 0 || n > padOffset {
			return 0, fmt.Errorf("netD: cell %q outside [a0,a%d]", name, padOffset)
		}
		return int32(n), nil
	case 'p':
		id := padOffset + n // p1 → padOffset+1
		if n < 1 || id >= numModules {
			return 0, fmt.Errorf("netD: pad %q outside range", name)
		}
		return int32(id), nil
	default:
		return 0, fmt.Errorf("netD: module name %q must start with 'a' or 'p'", name)
	}
}

// WriteNetD writes h (with the given pad flags, nil for none) in
// .netD format, renaming modules to the canonical aN/pN scheme:
// non-pads first in index order, then pads.
func WriteNetD(netW io.Writer, areW io.Writer, h *Hypergraph, pads []bool) error {
	n := h.NumCells()
	if pads != nil && len(pads) != n {
		return fmt.Errorf("netD: pads has %d entries, hypergraph has %d cells", len(pads), n)
	}
	isPad := func(v int) bool { return pads != nil && pads[v] }
	// Canonical renaming.
	name := make([]string, n)
	cells, padCount := 0, 0
	for v := 0; v < n; v++ {
		if !isPad(v) {
			name[v] = fmt.Sprintf("a%d", cells)
			cells++
		}
	}
	for v := 0; v < n; v++ {
		if isPad(v) {
			padCount++
			name[v] = fmt.Sprintf("p%d", padCount)
		}
	}
	bw := bufio.NewWriter(netW)
	fmt.Fprintln(bw, 0)
	fmt.Fprintln(bw, h.NumPins())
	fmt.Fprintln(bw, h.NumNets())
	fmt.Fprintln(bw, n)
	fmt.Fprintln(bw, cells-1) // padOffset
	for e := 0; e < h.NumNets(); e++ {
		for i, v := range h.Pins(e) {
			marker := "l"
			if i == 0 {
				marker = "s"
			}
			fmt.Fprintf(bw, "%s %s\n", name[v], marker)
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if areW != nil {
		aw := bufio.NewWriter(areW)
		for v := 0; v < n; v++ {
			fmt.Fprintf(aw, "%s %d\n", name[v], h.Area(v))
		}
		return aw.Flush()
	}
	return nil
}
