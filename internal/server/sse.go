package server

// Server-Sent Events framing: the writer used by the event handlers
// and the tolerant frame parser used by the stream-consuming clients
// (the service benchmark workload and the protocol tests; the parser
// is also the fuzz target FuzzParseSSE).
//
// A frame is a block of "field: value" lines ended by a blank line:
//
//	id: 3
//	event: started
//	data: {"job_id":"j-000002","status":"running"}
//
// The parser follows the WHATWG EventSource grammar where it matters:
// lines starting with ':' are comments, one space after the field
// colon is stripped, '\r' line endings are tolerated, multiple data
// lines join with '\n', unknown fields are ignored, and a trailing
// block without its blank line is never dispatched.

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// writeSSE emits one frame. Multi-line data becomes repeated data:
// lines, which a conforming parser rejoins with '\n'.
func writeSSE(w io.Writer, id int64, event string, data []byte) error {
	var b strings.Builder
	if id > 0 {
		fmt.Fprintf(&b, "id: %d\n", id)
	}
	if event != "" {
		fmt.Fprintf(&b, "event: %s\n", event)
	}
	if len(data) > 0 {
		for _, line := range strings.Split(string(data), "\n") {
			fmt.Fprintf(&b, "data: %s\n", line)
		}
	}
	b.WriteByte('\n')
	_, err := io.WriteString(w, b.String())
	return err
}

// SSEFrame is one parsed event.
type SSEFrame struct {
	ID    int64
	Event string
	Data  string
}

// SSEParser accumulates one frame line by line. The zero value is
// ready to use; Line reports a dispatched frame on each blank line
// that closes a non-empty block.
type SSEParser struct {
	cur      SSEFrame
	dataset  []string
	hasField bool
}

// Line feeds one input line (without its trailing '\n'; a trailing
// '\r' is stripped here) and returns the completed frame, if any.
func (p *SSEParser) Line(s string) (SSEFrame, bool) {
	s = strings.TrimSuffix(s, "\r")
	if s == "" {
		if !p.hasField {
			return SSEFrame{}, false
		}
		f := p.cur
		f.Data = strings.Join(p.dataset, "\n")
		p.cur, p.dataset, p.hasField = SSEFrame{}, nil, false
		return f, true
	}
	if strings.HasPrefix(s, ":") {
		return SSEFrame{}, false // comment
	}
	field, value, _ := strings.Cut(s, ":")
	value = strings.TrimPrefix(value, " ")
	switch field {
	case "id":
		if v, err := strconv.ParseInt(value, 10, 64); err == nil {
			p.cur.ID = v
			p.hasField = true
		}
	case "event":
		p.cur.Event = value
		p.hasField = true
	case "data":
		p.dataset = append(p.dataset, value)
		p.hasField = true
	}
	return SSEFrame{}, false
}

// ParseSSE parses a complete byte stream into its dispatched frames.
func ParseSSE(b []byte) []SSEFrame {
	var p SSEParser
	var frames []SSEFrame
	for _, line := range strings.Split(string(b), "\n") {
		if f, ok := p.Line(line); ok {
			frames = append(frames, f)
		}
	}
	return frames
}

// ReadSSEFrame reads from r until one frame is dispatched — the
// client side of a live stream, where the input never ends on its
// own. An error (io.EOF included) before a complete frame is
// returned as-is.
func ReadSSEFrame(r *bufio.Reader, p *SSEParser) (SSEFrame, error) {
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			return SSEFrame{}, err
		}
		if f, ok := p.Line(strings.TrimSuffix(line, "\n")); ok {
			return f, nil
		}
	}
}
