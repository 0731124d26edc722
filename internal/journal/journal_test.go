package journal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"mlpart/internal/faultinject"
)

func tmpJournal(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "jobs.wal")
}

func mustAppend(t *testing.T, w *Writer, recs ...Record) {
	t.Helper()
	for _, r := range recs {
		if err := w.Append(r); err != nil {
			t.Fatalf("Append(%+v): %v", r, err)
		}
	}
}

func acceptedRec(id string, seq int) Record {
	return Record{
		Type: TypeAccepted, ID: id, Seq: seq,
		ContentHash: "c", Fingerprint: "f", K: 2,
		Request: []byte(`{"hgr":"x"}`),
	}
}

func TestAppendLoadRoundTrip(t *testing.T) {
	path := tmpJournal(t)
	w, err := OpenAppend(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := []Record{
		acceptedRec("j-000000", 0),
		{Type: TypeStarted, ID: "j-000000", Seq: 0},
		{Type: TypeTerminal, ID: "j-000000", Seq: 0, Status: "completed"},
		acceptedRec("j-000001", 1),
	}
	mustAppend(t, w, want...)
	if w.Appends() != len(want) {
		t.Fatalf("Appends() = %d, want %d", w.Appends(), len(want))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, st, err := Load(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Truncated || st.TornBytes != 0 || st.Frames != len(want) {
		t.Fatalf("clean journal stats %+v", st)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip:\ngot  %+v\nwant %+v", got, want)
	}
}

func TestLoadMissingFileIsEmpty(t *testing.T) {
	recs, st, err := Load(filepath.Join(t.TempDir(), "nope.wal"), nil)
	if err != nil || len(recs) != 0 || st.Frames != 0 || st.Truncated {
		t.Fatalf("missing file: recs %v stats %+v err %v", recs, st, err)
	}
}

// TestTornTailTruncates chops a valid journal at every possible byte
// boundary and requires Load to recover exactly the frames whose last
// byte survived — never an error, never a panic, never a partial
// record.
func TestTornTailTruncates(t *testing.T) {
	path := tmpJournal(t)
	w, err := OpenAppend(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	full := []Record{
		acceptedRec("j-000000", 0),
		{Type: TypeTerminal, ID: "j-000000", Seq: 0, Status: "completed"},
		acceptedRec("j-000001", 1),
	}
	mustAppend(t, w, full...)
	w.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Frame boundaries, computed by re-decoding.
	var bounds []int64
	off := int64(0)
	for off < int64(len(data)) {
		_, next, ok := decodeFrame(data, off)
		if !ok {
			t.Fatalf("reference decode failed at %d", off)
		}
		bounds = append(bounds, next)
		off = next
	}

	for cut := 0; cut <= len(data); cut++ {
		torn := filepath.Join(t.TempDir(), "torn.wal")
		if err := os.WriteFile(torn, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		recs, st, err := Load(torn, nil)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		wantFrames := 0
		for _, b := range bounds {
			if int64(cut) >= b {
				wantFrames++
			}
		}
		if len(recs) != wantFrames {
			t.Fatalf("cut %d: recovered %d frames, want %d", cut, len(recs), wantFrames)
		}
		for i := range recs {
			if !reflect.DeepEqual(recs[i], full[i]) {
				t.Fatalf("cut %d: record %d = %+v, want %+v", cut, i, recs[i], full[i])
			}
		}
		wantValid := int64(0)
		if wantFrames > 0 {
			wantValid = bounds[wantFrames-1]
		}
		if st.ValidBytes != wantValid {
			t.Fatalf("cut %d: valid bytes %d, want %d", cut, st.ValidBytes, wantValid)
		}
	}
}

// TestBitFlipTruncates flips one byte inside each frame and requires
// Load to stop at the damaged frame.
func TestBitFlipTruncates(t *testing.T) {
	path := tmpJournal(t)
	w, err := OpenAppend(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	full := []Record{
		acceptedRec("j-000000", 0),
		acceptedRec("j-000001", 1),
		acceptedRec("j-000002", 2),
	}
	mustAppend(t, w, full...)
	w.Close()
	data, _ := os.ReadFile(path)

	// Flip a payload byte of the middle frame.
	_, b0, _ := decodeFrame(data, 0)
	mut := append([]byte(nil), data...)
	mut[b0+headerSize+2] ^= 0x40
	flipped := filepath.Join(t.TempDir(), "flip.wal")
	os.WriteFile(flipped, mut, 0o644)

	recs, st, err := Load(flipped, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || !st.Truncated {
		t.Fatalf("bit flip in frame 2: recovered %d frames, stats %+v", len(recs), st)
	}
	if recs[0].ID != "j-000000" {
		t.Fatalf("wrong surviving record %+v", recs[0])
	}
}

// TestAbsurdLengthPrefix writes a frame header claiming a multi-GB
// payload: Load must treat it as a torn tail, not an allocation.
func TestAbsurdLengthPrefix(t *testing.T) {
	path := tmpJournal(t)
	w, _ := OpenAppend(path, Options{})
	mustAppend(t, w, acceptedRec("j-000000", 0))
	w.Close()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], 1<<30)
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(nil))
	f.Write(hdr[:])
	f.Close()
	recs, st, err := Load(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || !st.Truncated || st.TornBytes != 8 {
		t.Fatalf("absurd length: recs %d stats %+v", len(recs), st)
	}
}

func TestRewriteCompacts(t *testing.T) {
	path := tmpJournal(t)
	w, _ := OpenAppend(path, Options{})
	mustAppend(t, w,
		acceptedRec("j-000000", 0),
		Record{Type: TypeTerminal, ID: "j-000000", Seq: 0, Status: "completed"},
		acceptedRec("j-000001", 1),
	)
	w.Close()

	keep := []Record{acceptedRec("j-000001", 1)}
	keep[0].Recovered = true
	if err := Rewrite(path, keep); err != nil {
		t.Fatal(err)
	}
	recs, st, err := Load(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Truncated || len(recs) != 1 || recs[0].ID != "j-000001" || !recs[0].Recovered {
		t.Fatalf("compacted journal: %+v stats %+v", recs, st)
	}

	// The compacted journal accepts further appends.
	w2, err := OpenAppend(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, w2, Record{Type: TypeTerminal, ID: "j-000001", Seq: 1, Status: "completed"})
	w2.Close()
	recs, _, _ = Load(path, nil)
	if len(recs) != 2 || recs[1].Type != TypeTerminal {
		t.Fatalf("append after compaction: %+v", recs)
	}
}

func TestAppendHookSeesEveryDurableAppend(t *testing.T) {
	path := tmpJournal(t)
	var calls []int
	w, err := OpenAppend(path, Options{AppendHook: func(n int) { calls = append(calls, n) }})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, w, acceptedRec("j-000000", 0), acceptedRec("j-000001", 1))
	w.Close()
	if !reflect.DeepEqual(calls, []int{1, 2}) {
		t.Fatalf("hook calls %v, want [1 2]", calls)
	}
}

// TestInjectedTornWrite arms a corrupt fault at journal.append: the
// append fails, the file holds half a frame, the writer goes
// read-only, and Load truncates the torn tail.
func TestInjectedTornWrite(t *testing.T) {
	path := tmpJournal(t)
	plan := &faultinject.Plan{Entries: []faultinject.Entry{
		faultinject.On(faultinject.SiteJournalAppend, faultinject.KindCorrupt, 2),
	}}
	w, err := OpenAppend(path, Options{Inject: plan.NewInjector(0)})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, w, acceptedRec("j-000000", 0))
	if err := w.Append(acceptedRec("j-000001", 1)); err == nil {
		t.Fatal("torn write reported no error")
	}
	if err := w.Append(acceptedRec("j-000002", 2)); err == nil {
		t.Fatal("writer usable after torn write")
	}
	w.Close()
	recs, st, err := Load(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || !st.Truncated || st.TornBytes == 0 {
		t.Fatalf("after torn write: %d recs, stats %+v", len(recs), st)
	}
}

// TestInjectedTransientAppend arms a cancel fault: one append fails
// with ErrTransient, the next succeeds.
func TestInjectedTransientAppend(t *testing.T) {
	path := tmpJournal(t)
	plan := &faultinject.Plan{Entries: []faultinject.Entry{
		faultinject.On(faultinject.SiteJournalAppend, faultinject.KindCancel, 1),
	}}
	w, err := OpenAppend(path, Options{Inject: plan.NewInjector(0)})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(acceptedRec("j-000000", 0)); !errors.Is(err, ErrTransient) {
		t.Fatalf("want ErrTransient, got %v", err)
	}
	mustAppend(t, w, acceptedRec("j-000001", 1))
	w.Close()
	recs, _, _ := Load(path, nil)
	if len(recs) != 1 || recs[0].ID != "j-000001" {
		t.Fatalf("after transient failure: %+v", recs)
	}
}

// TestInjectedReplayTruncation arms a corrupt fault at the second
// replay frame: Load must yield the one-frame prefix and mark the
// rest torn.
func TestInjectedReplayTruncation(t *testing.T) {
	path := tmpJournal(t)
	w, _ := OpenAppend(path, Options{})
	mustAppend(t, w, acceptedRec("j-000000", 0), acceptedRec("j-000001", 1))
	w.Close()
	plan := &faultinject.Plan{Entries: []faultinject.Entry{
		faultinject.On(faultinject.SiteJournalReplay, faultinject.KindCorrupt, 2),
	}}
	recs, st, err := Load(path, plan.NewInjector(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || !st.Truncated || st.TornBytes == 0 {
		t.Fatalf("injected replay truncation: %d recs, stats %+v", len(recs), st)
	}
}

// TestLoadDeterministic loads the same bytes twice and requires
// identical results — the consistency contract FuzzJournalReplay
// extends to arbitrary corrupt inputs.
func TestLoadDeterministic(t *testing.T) {
	path := tmpJournal(t)
	w, _ := OpenAppend(path, Options{})
	mustAppend(t, w, acceptedRec("j-000000", 0), acceptedRec("j-000001", 1))
	w.Close()
	// Add garbage.
	f, _ := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	f.Write(bytes.Repeat([]byte{0xAB}, 13))
	f.Close()

	r1, s1, e1 := Load(path, nil)
	r2, s2, e2 := Load(path, nil)
	if e1 != nil || e2 != nil || !reflect.DeepEqual(r1, r2) || s1 != s2 {
		t.Fatalf("Load not deterministic: %v/%v %+v/%+v", e1, e2, s1, s2)
	}
}
