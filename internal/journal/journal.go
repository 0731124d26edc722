// Package journal is the crash-durability layer of mlpartd: an
// append-only, fsync-disciplined write-ahead log of job lifecycle
// records. The server appends an "accepted" record before it
// acknowledges a submission and exactly one "terminal" record when
// the job reaches its terminal status — so after a crash (OOM kill, SIGKILL, power
// loss) the journal is the authoritative account of which accepted
// jobs still owe the client a terminal status.
//
// On-disk format: a sequence of frames, each
//
//	[4-byte LE payload length][4-byte LE CRC32(IEEE) of payload][payload]
//
// where the payload is the JSON encoding of a Record. Appends are
// synced to stable storage before they are acknowledged. A crash can
// leave at most one torn frame, and only at the tail; Load detects it
// (short header, short payload, absurd length, CRC mismatch, or
// undecodable payload) and reports the longest valid prefix, which
// recovery then makes authoritative by compacting the file. A torn
// tail truncates — it never fails startup: the frames before it were
// synced and acknowledged, the torn frame itself was by construction
// never acknowledged to any client, so dropping it is exactly the
// crash semantics the client already observed.
//
// The journal.append and journal.replay fault sites are instrumented
// here so the chaos suite can model torn writes, dying disks, slow
// fsyncs, and mid-replay corruption deterministically.
package journal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"

	"mlpart/internal/faultinject"
)

// Type classifies a lifecycle record.
type Type string

const (
	// TypeAccepted: the job was admitted; written and synced before
	// the 202 response. Carries everything needed to re-run the job.
	TypeAccepted Type = "accepted"
	// TypeStarted: a worker began executing the job. The server no
	// longer writes it; journals that carry it still load, and replay
	// ignores it — a crash between accepted and terminal re-enqueues
	// the job whether or not it had started.
	TypeStarted Type = "started"
	// TypeTerminal: the job reached its terminal status. A job with a
	// replayed terminal record is closed and must never be re-run.
	TypeTerminal Type = "terminal"
)

// Record is one journal entry. Accepted records carry the request
// payload (so the job can be rebuilt after a restart) plus the
// identity fields; terminal (and legacy started) records are slim — results
// are deliberately not journaled, because the pipeline is
// deterministic and a recomputation is byte-identical.
type Record struct {
	Type Type   `json:"type"`
	ID   string `json:"id"`
	Seq  int    `json:"seq"`

	// Status is the terminal status; terminal records only.
	Status string `json:"status,omitempty"`

	// Accepted-record fields.
	ContentHash string `json:"content_hash,omitempty"`
	Fingerprint string `json:"fingerprint,omitempty"`
	K           int    `json:"k,omitempty"`
	// IdemKey is the client's Idempotency-Key, preserved so duplicate
	// detection survives restarts.
	IdemKey string `json:"idempotency_key,omitempty"`
	// Recovered marks a record rewritten by post-replay compaction —
	// the job survived at least one process death.
	Recovered bool `json:"recovered,omitempty"`
	// Request is the last field: frameEncoder appends it after the
	// others. It is the original submission document (the POST /v1/jobs
	// body as received; the frame stores it compacted), kept only while
	// the job is live; compaction drops it from closed jobs. Journals
	// written before the body was kept as received hold the request
	// re-marshaled; both decode the same.
	Request json.RawMessage `json:"request,omitempty"`
}

// maxFrame bounds a single frame payload. A length prefix above it is
// treated as tail corruption rather than an allocation request.
const maxFrame = 1 << 28 // 256 MiB, comfortably above the server's body cap

const headerSize = 8

// ReplayStats describes what Load found.
type ReplayStats struct {
	// Frames is the number of valid frames decoded.
	Frames int
	// ValidBytes is the length of the longest valid prefix; bytes
	// beyond it are the torn tail.
	ValidBytes int64
	// TornBytes is how many trailing bytes were unreadable (0 when the
	// journal ends cleanly).
	TornBytes int64
	// Truncated reports whether replay stopped early — a torn tail, or
	// an injected replay fault that models one.
	Truncated bool
}

// keepFrameBytes caps the frame buffer a frameEncoder keeps between
// records: a larger frame's buffer is dropped once written, so one
// 64 MiB job does not pin 64 MiB in the Writer.
const keepFrameBytes = 1 << 20

// frameEncoder renders records as frames in one reused buffer. It must
// not be copied once used: its json.Encoder writes to buf by address.
type frameEncoder struct {
	buf bytes.Buffer
	enc *json.Encoder
	// esc holds a compacted request that still needs HTML escaping.
	esc bytes.Buffer
}

// encode renders rec as one length-prefixed, checksummed frame: an
// 8-byte header gap, the record's JSON straight after it, then the
// length and CRC filled in. The payload is byte-identical to
// json.Marshal(rec). The record's small fields go through a
// json.Encoder; the request, its last field and the one that scales
// with the job, is compacted and HTML-escaped straight into the frame,
// as json.Marshal renders a RawMessage, so it is never held in the
// encoder's pooled state or copied twice. The frame aliases the
// encoder's buffer and is valid until the next encode or release.
func (fe *frameEncoder) encode(rec *Record) ([]byte, error) {
	if fe.enc == nil {
		fe.enc = json.NewEncoder(&fe.buf)
	}
	fe.buf.Reset()
	var gap [headerSize]byte
	fe.buf.Write(gap[:])
	head := *rec
	head.Request = nil
	if err := fe.enc.Encode(&head); err != nil {
		return nil, fmt.Errorf("journal: encode record: %w", err)
	}
	fe.buf.Truncate(fe.buf.Len() - 1) // Encode's newline
	if len(rec.Request) > 0 {
		fe.buf.Truncate(fe.buf.Len() - 1) // the closing brace
		fe.buf.WriteString(`,"request":`)
		if err := fe.appendRequest(rec.Request); err != nil {
			return nil, fmt.Errorf("journal: encode record request: %w", err)
		}
		fe.buf.WriteByte('}')
	}
	frame := fe.buf.Bytes()
	payload := frame[headerSize:]
	if len(payload) > maxFrame {
		return nil, fmt.Errorf("journal: record payload %d bytes exceeds frame cap %d", len(payload), maxFrame)
	}
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	return frame, nil
}

// appendRequest appends req compacted, with <, >, & and U+2028/U+2029
// escaped: json.Marshal's rendering of a RawMessage. Those characters
// can only occur inside strings, so HTMLEscape after Compact is the
// same as escaping while compacting; a request without them, the usual
// case, is compacted straight into the frame.
func (fe *frameEncoder) appendRequest(req []byte) error {
	if !bytes.ContainsAny(req, "<>&") && !bytes.Contains(req, []byte("\u2028")) && !bytes.Contains(req, []byte("\u2029")) {
		return json.Compact(&fe.buf, req)
	}
	fe.esc.Reset()
	if err := json.Compact(&fe.esc, req); err != nil {
		return err
	}
	json.HTMLEscape(&fe.buf, fe.esc.Bytes())
	return nil
}

// release drops a buffer grown past keepFrameBytes.
func (fe *frameEncoder) release() {
	if fe.buf.Cap() > keepFrameBytes {
		fe.buf = bytes.Buffer{}
	}
	if fe.esc.Cap() > keepFrameBytes {
		fe.esc = bytes.Buffer{}
	}
}

// decodeFrame decodes the frame at data[off:]. ok is false when the
// bytes at off do not form a complete valid frame — the torn-tail
// condition; next is the offset just past the frame when ok.
func decodeFrame(data []byte, off int64) (rec Record, next int64, ok bool) {
	if off+headerSize > int64(len(data)) {
		return Record{}, off, false
	}
	n := binary.LittleEndian.Uint32(data[off : off+4])
	sum := binary.LittleEndian.Uint32(data[off+4 : off+8])
	if n > maxFrame {
		return Record{}, off, false
	}
	end := off + headerSize + int64(n)
	if end > int64(len(data)) {
		return Record{}, off, false
	}
	payload := data[off+headerSize : end]
	if crc32.ChecksumIEEE(payload) != sum {
		return Record{}, off, false
	}
	if err := json.Unmarshal(payload, &rec); err != nil {
		return Record{}, off, false
	}
	switch rec.Type {
	case TypeAccepted, TypeStarted, TypeTerminal:
	default:
		return Record{}, off, false
	}
	if rec.ID == "" || rec.Seq < 0 {
		return Record{}, off, false
	}
	return rec, end, true
}

// Load reads the journal at path and returns every record of its
// longest valid prefix, stopping at the first torn or corrupt frame.
// It never modifies the file (safe for offline inspection) and never
// panics on corrupt input — any undecodable suffix is reported in
// ReplayStats, not an error. A missing file is an empty journal. inj,
// when non-nil, fires the journal.replay fault site once per frame.
func Load(path string, inj *faultinject.Injector) ([]Record, ReplayStats, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, ReplayStats{}, nil
	}
	if err != nil {
		return nil, ReplayStats{}, fmt.Errorf("journal: read %s: %w", path, err)
	}
	var recs []Record
	var st ReplayStats
	var off int64
	for off < int64(len(data)) {
		if inj != nil {
			switch inj.Fire(faultinject.SiteJournalReplay) {
			case faultinject.ActCancel, faultinject.ActCorrupt:
				// Model mid-file corruption / an interrupted replay: the
				// rest of the journal is treated as a torn tail.
				st.Truncated = true
				st.ValidBytes = off
				st.TornBytes = int64(len(data)) - off
				return recs, st, nil
			}
		}
		rec, next, ok := decodeFrame(data, off)
		if !ok {
			st.Truncated = true
			break
		}
		recs = append(recs, rec)
		st.Frames++
		off = next
	}
	st.ValidBytes = off
	st.TornBytes = int64(len(data)) - off
	return recs, st, nil
}

// Rewrite atomically replaces the journal at path with exactly recs —
// the compaction primitive. The new content is written to a temp file
// in the same directory, synced, renamed over path, and the directory
// synced, so a crash during compaction leaves either the old journal
// or the new one, never a mix.
func Rewrite(path string, recs []Record) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".compact-*")
	if err != nil {
		return fmt.Errorf("journal: compact: %w", err)
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after a successful rename
	var fe frameEncoder
	for i := range recs {
		frame, err := fe.encode(&recs[i])
		if err != nil {
			tmp.Close()
			return err
		}
		if _, err := tmp.Write(frame); err != nil {
			tmp.Close()
			return fmt.Errorf("journal: compact write: %w", err)
		}
		fe.release()
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("journal: compact sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("journal: compact close: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		return fmt.Errorf("journal: compact rename: %w", err)
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a just-renamed file survives a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("journal: open dir %s: %w", dir, err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		// Some filesystems refuse directory fsync; the rename itself is
		// still ordered on the journaled filesystems we target.
		var pe *os.PathError
		if errors.As(err, &pe) {
			return nil
		}
		return fmt.Errorf("journal: sync dir %s: %w", dir, err)
	}
	return nil
}

// Options configures a Writer.
type Options struct {
	// Inject, when non-nil, fires the journal.append fault site on
	// every append.
	Inject *faultinject.Injector
	// AppendHook, when non-nil, runs after every durable append with
	// the 1-based append count — the crash harness hooks SIGKILL here
	// to die at exact journal positions.
	AppendHook func(n int)
}

// Writer appends frames to an open journal. Safe for concurrent use;
// each append is synced to stable storage before Append returns.
type Writer struct {
	mu   sync.Mutex
	f    *os.File
	fe   frameEncoder // every frame is built in its buffer
	n    int
	err  error // sticky: a torn write leaves the journal read-only
	inj  *faultinject.Injector
	hook func(n int)
}

// OpenAppend opens path for appending, creating it if needed. Callers
// are expected to have settled the file's contents first (Load +
// Rewrite): OpenAppend itself does not validate or truncate.
func OpenAppend(path string, opts Options) (*Writer, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: open %s: %w", path, err)
	}
	return &Writer{f: f, inj: opts.Inject, hook: opts.AppendHook}, nil
}

// ErrTransient is returned when an injected cancel fault fails one
// append without poisoning the writer — the model of a transient I/O
// refusal.
var ErrTransient = errors.New("journal: transient append failure (injected)")

// Append encodes rec as one frame, writes it, and syncs before
// returning — the record is durable (or the error says it is not).
// After a failed write the writer is read-only and every later append
// returns the first error: a half-written frame means the tail is no
// longer trustworthy, exactly like a dying disk.
func (w *Writer) Append(rec Record) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	frame, err := w.fe.encode(&rec)
	if err != nil {
		return err
	}
	defer w.fe.release()
	if w.inj != nil {
		switch w.inj.Fire(faultinject.SiteJournalAppend) {
		case faultinject.ActCancel:
			return ErrTransient
		case faultinject.ActCorrupt:
			// Torn-write model: half the frame reaches the file, then
			// the device dies. Replay will truncate this tail.
			_, _ = w.f.Write(frame[:len(frame)/2])
			_ = w.f.Sync()
			w.err = errors.New("journal: torn write (injected device failure)")
			return w.err
		}
	}
	if _, err := w.f.Write(frame); err != nil {
		w.err = fmt.Errorf("journal: append: %w", err)
		return w.err
	}
	if err := w.f.Sync(); err != nil {
		w.err = fmt.Errorf("journal: sync: %w", err)
		return w.err
	}
	w.n++
	if w.hook != nil {
		w.hook(w.n)
	}
	return nil
}

// Appends reports how many records this writer has durably appended.
func (w *Writer) Appends() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.n
}

// Close syncs and closes the journal file. Further appends fail.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.f.Sync()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	if w.err == nil {
		w.err = errors.New("journal: closed")
	}
	return err
}
