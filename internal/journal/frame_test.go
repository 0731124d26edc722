package journal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"strings"
	"testing"
)

// refEncodeFrame is a frozen copy of the frame encoder that built every
// frame with json.Marshal and then copied the payload into the frame.
// frameEncoder must produce byte-identical frames.
func refEncodeFrame(rec *Record) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("journal: encode record: %w", err)
	}
	if len(payload) > maxFrame {
		return nil, fmt.Errorf("journal: record payload %d bytes exceeds frame cap %d", len(payload), maxFrame)
	}
	frame := make([]byte, headerSize+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	copy(frame[headerSize:], payload)
	return frame, nil
}

// frameRecords covers every optional field present and absent, and
// requests and strings that json.Marshal rewrites: white space between
// tokens, HTML-significant <>&, non-ASCII text, the JavaScript line
// separators and invalid UTF-8.
func frameRecords() []Record {
	return []Record{
		{Type: TypeStarted, ID: "j-000000", Seq: 0},
		{Type: TypeTerminal, ID: "j-000000", Seq: 0, Status: "completed"},
		{Type: TypeAccepted, ID: "j-000001", Seq: 1},
		{Type: TypeAccepted, ID: "j-000002", Seq: 2, ContentHash: "c0ffee", Fingerprint: "fp", K: 4,
			IdemKey: "key <1> & \"2\"", Recovered: true,
			Request: []byte("{ \"hgr\" : \"2 2\\n1 2\\n\" ,\n\t\"k\": 4,\r\n \"options\": { \"engine\": \"clip\" } }  \n")},
		{Type: TypeAccepted, ID: "j-000003", Seq: 3, K: 2,
			Request: []byte(`{"hgr":"% <net> & \"cells\" über ∑   \n2 2\n1 2\n","stats":true}`)},
		{Type: TypeAccepted, ID: "j-000004", Seq: 4, IdemKey: "é ü\xff",
			Request: []byte("{\"hgr\":\"<>&   raw \xff bytes\"}")},
		{Type: TypeAccepted, ID: "j-000005", Seq: 5, Request: []byte(`null`)},
		{Type: TypeAccepted, ID: "j-000006", Seq: 6, Request: []byte("{\"hgr\": \"line\u2028sep \u2029 \\u2028\"}")},
		{Type: TypeAccepted, ID: "j-000007", Seq: 7, Request: []byte{}},
		{Type: TypeAccepted, ID: "j-000008", Seq: 8, Request: []byte(" 7 ")},
		{Type: TypeTerminal, ID: "j-é<&>", Seq: 1 << 40, Status: "deadline-exceeded"},
	}
}

// TestFrameMatchesReference holds frameEncoder to the frozen
// json.Marshal encoder, with one encoder reused across all records as
// the Writer reuses it.
func TestFrameMatchesReference(t *testing.T) {
	var fe frameEncoder
	for i, rec := range frameRecords() {
		want, err := refEncodeFrame(&rec)
		if err != nil {
			t.Fatalf("record %d: reference: %v", i, err)
		}
		got, err := fe.encode(&rec)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("record %d: frame\n%q\nwant\n%q", i, got, want)
		}
		fe.release()
	}
	bad := Record{Type: TypeAccepted, ID: "j-9", Request: []byte(`{"hgr":`)}
	if _, err := refEncodeFrame(&bad); err == nil {
		t.Fatal("reference encoded an invalid request")
	}
	if _, err := fe.encode(&bad); err == nil {
		t.Fatal("frameEncoder encoded an invalid request")
	}
	// A failed encode leaves the encoder usable.
	rec := frameRecords()[3]
	want, _ := refEncodeFrame(&rec)
	if got, err := fe.encode(&rec); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("encode after a failed one: %q, %v; want %q", got, err, want)
	}
}

// TestWriterFramesMatchReference checks the bytes on disk: a journal
// appended through the Writer — including a frame over keepFrameBytes,
// whose buffer the Writer must not keep — is the concatenation of the
// reference frames.
func TestWriterFramesMatchReference(t *testing.T) {
	path := tmpJournal(t)
	w, err := OpenAppend(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	recs := frameRecords()
	big := strings.Repeat("1 2\\n", keepFrameBytes/4+1) + "<&>"
	recs = append(recs[:3], append([]Record{{Type: TypeAccepted, ID: "j-big", Seq: 9,
		Request: []byte(`{"hgr":"` + big + `"}`)}}, recs[3:]...)...)
	var want []byte
	for i := range recs {
		frame, err := refEncodeFrame(&recs[i])
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, frame...)
		mustAppend(t, w, recs[i])
		if c := max(w.fe.buf.Cap(), w.fe.esc.Cap()); c > keepFrameBytes {
			t.Fatalf("after record %d the writer keeps a %d-byte buffer, cap %d", i, c, keepFrameBytes)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("journal bytes differ from the reference frames (%d vs %d bytes)", len(got), len(want))
	}

	// Rewrite builds its frames with the same encoder.
	if err := Rewrite(path, recs); err != nil {
		t.Fatal(err)
	}
	if got, err = os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("rewritten journal differs from the reference frames: %v", err)
	}
}
