package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// refJobRequest is jobRequest as the frozen decoder below decodes it,
// with the hgr text in a Go string.
type refJobRequest struct {
	HGR       string          `json:"hgr"`
	K         int             `json:"k,omitempty"`
	Options   json.RawMessage `json:"options,omitempty"`
	TimeoutMS int64           `json:"timeout_ms,omitempty"`
	Stats     bool            `json:"stats,omitempty"`
}

// refDecodeJobRequest is a frozen copy of the POST /v1/jobs decoder
// that ran a json.Decoder with DisallowUnknownFields over the
// MaxBytesReader-bounded body, plus the rule that nothing but white
// space may follow the request document. readJobRequest must accept
// and reject the same bodies and decode the same request.
func refDecodeJobRequest(w http.ResponseWriter, r *http.Request, limit int64) (refJobRequest, error) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	var req refJobRequest
	if err := dec.Decode(&req); err != nil {
		return refJobRequest{}, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return refJobRequest{}, fmt.Errorf("trailing data after the request: %v", err)
	}
	return req, nil
}

// decoderLimit is the body cap of the differential decoder tests:
// small, so the fuzzer reaches oversize bodies.
const decoderLimit = 512

// decoderSeeds are request bodies on which the decoders are most
// likely to part: case-variant and escaped keys (encoding/json folds
// case, including the Kelvin sign and the long s), duplicate keys,
// null values, values of the wrong type, documents that are not an
// object, trailing data, and bodies around the size cap.
func decoderSeeds() []string {
	const mesh = "4 4\n1 2\n2 3\n3 4\n4 1\n"
	hgr := jsonString(mesh)
	return []string{
		`{"hgr":` + hgr + `}`,
		`{"hgr":` + hgr + `,"k":4,"options":{"engine":"clip","starts":2},"timeout_ms":100,"stats":true}`,
		` { "hgr" : ` + hgr + ` , "options" : null } ` + "\n\t",
		`{"HGR":` + hgr + `}`,
		`{"Hgr":` + hgr + `,"K":4,"Options":{},"TIMEOUT_MS":5,"Stats":true}`,
		`{"hgr":` + hgr + `,"K":4}`,
		`{"hgr":` + hgr + `,"ſtats":true}`,
		`{"hgr":` + hgr + `}`,
		`{"hgr":"a","hgr":` + hgr + `}`,
		`{"hgr":` + hgr + `,"HGR":null}`,
		`{"hgr":` + hgr + `,"hgr":null,"k":2,"k":null,"k":4}`,
		`{"options":{"a":1},"options":null}`,
		`{"hgr":null}`,
		`{"hgr":5}`,
		`{"hgr":{}}`,
		`{"hgr":["x"]}`,
		`{"k":"2"}`,
		`{"k":2.5}`,
		`{"timeout_ms":1e3}`,
		`{"stats":1}`,
		`{"hgr":` + hgr + `,"extra":1}`,
		`{"hgr":` + hgr + `,"extra":null}`,
		`{"hgr":` + hgr + `,"hgrx":1}`,
		`{"hgr":` + hgr + `,"options":{"bogus":1}}`,
		`{"hgr":"2 2\n1 2\xff\n"}`,
		`{"hgr":"<a>& é"}`,
		`{}`,
		`null`,
		`[]`,
		`"hgr"`,
		`5`,
		`true`,
		``,
		`   `,
		`{`,
		`{"hgr":` + hgr + `}{"k":4}`,
		`{"hgr":` + hgr + `} {}`,
		`{"hgr":` + hgr + `}]`,
		`{"hgr":` + hgr + `}x`,
		`{}null`,
		"\xef\xbb\xbf{}",
		`{"hgr":"` + strings.Repeat("%", decoderLimit-11) + `"}`,
		`{"hgr":"` + strings.Repeat("%", decoderLimit-10) + `"}`,
		`{"hgr":"` + strings.Repeat("%", decoderLimit) + `"}`,
	}
}

// decoderRequest is a POST of body whose Content-Length header is
// declared: exactly (0), unknown (1), one byte short (2) or one byte
// long (3).
func decoderRequest(body []byte, declared int) *http.Request {
	if declared == 0 {
		return httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body))
	}
	r := httptest.NewRequest(http.MethodPost, "/v1/jobs", struct{ io.Reader }{bytes.NewReader(body)})
	switch declared {
	case 2:
		r.ContentLength = int64(len(body)) - 1
	case 3:
		r.ContentLength = int64(len(body)) + 1
	}
	return r
}

// checkDecoderAgrees runs the frozen and the live decoder on body and
// fails unless both accept it with the same request or both reject it.
func checkDecoderAgrees(t *testing.T, body []byte) {
	t.Helper()
	want, wantErr := refDecodeJobRequest(httptest.NewRecorder(), decoderRequest(body, 0), decoderLimit)
	for declared := 0; declared < 4; declared++ {
		got, raw, err := readJobRequest(httptest.NewRecorder(), decoderRequest(body, declared), decoderLimit)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("body %q (length case %d): decoder error %v, reference error %v", body, declared, err, wantErr)
		}
		if err != nil {
			continue
		}
		if !bytes.Equal(raw, body) {
			t.Fatalf("body %q (length case %d): read %q", body, declared, raw)
		}
		if string(got.HGR.text) != want.HGR || got.K != want.K || !bytes.Equal(got.Options, want.Options) ||
			(got.Options == nil) != (want.Options == nil) || got.TimeoutMS != want.TimeoutMS || got.Stats != want.Stats {
			t.Fatalf("body %q: decoded {%q %d %q %d %v}, reference {%q %d %q %d %v}", body,
				got.HGR.text, got.K, got.Options, got.TimeoutMS, got.Stats,
				want.HGR, want.K, want.Options, want.TimeoutMS, want.Stats)
		}
	}
}

// FuzzJobRequestDecoder runs the POST /v1/jobs decoder in lockstep
// with its frozen json.Decoder reference: on every body, and whatever
// Content-Length the request declares, both must accept with the same
// decoded request or both reject. The seeds run with every `go test`;
// `make fuzz-smoke` runs the fuzzer for 5 s.
func FuzzJobRequestDecoder(f *testing.F) {
	for _, seed := range decoderSeeds() {
		f.Add([]byte(seed))
	}
	f.Fuzz(checkDecoderAgrees)
}

// TestDecoderAcceptsAndRejects pins the verdicts the differential
// target only compares: the reference must itself accept case-variant
// and duplicate keys and reject unknown keys, trailing data and an
// oversize body, or agreement would prove nothing.
func TestDecoderAcceptsAndRejects(t *testing.T) {
	const hgr = `"2 2\n1 2\n"`
	for _, tc := range []struct {
		body string
		ok   bool
	}{
		{`{"HGR":` + hgr + `}`, true},
		{`{"hgr":` + hgr + `,"K":4}`, true},
		{`{"hgr":"x","hgr":` + hgr + `}`, true},
		{`{"hgr":` + hgr + `}` + " \n", true},
		{`null`, true},
		{`{"hgr":` + hgr + `,"extra":1}`, false},
		{`{"hgr":` + hgr + `}{"k":4}`, false},
		{`{"hgr":"` + strings.Repeat("%", decoderLimit) + `"}`, false},
		{``, false},
		{`[]`, false},
	} {
		_, err := refDecodeJobRequest(httptest.NewRecorder(), decoderRequest([]byte(tc.body), 0), decoderLimit)
		if (err == nil) != tc.ok {
			t.Errorf("reference on %q: error %v, want ok=%v", tc.body, err, tc.ok)
		}
		checkDecoderAgrees(t, []byte(tc.body))
	}
}

// TestReadBodyExactSize checks that a body matching its declared
// Content-Length is read into one buffer of exactly that size, and
// that a body declaring a length over the cap still stops at the cap.
func TestReadBodyExactSize(t *testing.T) {
	body := bytes.Repeat([]byte("x"), 3000)
	got, err := readBody(bytes.NewReader(body), int64(len(body)), 1<<20)
	if err != nil || !bytes.Equal(got, body) {
		t.Fatalf("readBody: %d bytes, %v", len(got), err)
	}
	if cap(got) != len(body) {
		t.Errorf("buffer capacity %d for a %d-byte body", cap(got), len(body))
	}
	lying := http.MaxBytesReader(httptest.NewRecorder(), io.NopCloser(bytes.NewReader(body)), 100)
	got, err = readBody(lying, 1<<40, 100)
	var tooLarge *http.MaxBytesError
	if !errors.As(err, &tooLarge) {
		t.Fatalf("oversize body: %d bytes, error %v; want a MaxBytesError", len(got), err)
	}
}

// TestSubmitRejectsTrailingData: a second document after the request
// is malformed input, never ignored; white space after it is fine.
func TestSubmitRejectsTrailingData(t *testing.T) {
	s, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	h := s.Handler()
	doc := `{"hgr":` + jsonString(testHGR(t, 4, 4)) + `}`
	for _, tc := range []struct {
		body string
		code int
	}{
		{doc + `{"k":4}`, http.StatusBadRequest},
		{doc + `{}`, http.StatusBadRequest},
		{doc + `x`, http.StatusBadRequest},
		{doc + " \r\n\t", http.StatusAccepted},
	} {
		before := s.Stats().Invalid
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(tc.body)))
		if rec.Code != tc.code {
			t.Fatalf("trailing %q: status %d, want %d: %s", tc.body[len(doc):], rec.Code, tc.code, rec.Body.Bytes())
		}
		if tc.code == http.StatusBadRequest {
			var eb errorBody
			if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.Error.Code != "bad_request" {
				t.Errorf("trailing %q: error body %s", tc.body[len(doc):], rec.Body.Bytes())
			}
			if after := s.Stats().Invalid; after != before+1 {
				t.Errorf("trailing %q: invalid counter %d -> %d", tc.body[len(doc):], before, after)
			}
		}
	}
}
