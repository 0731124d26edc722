package mlpart

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"
)

func TestOptionsCanonicalJSONRoundTrip(t *testing.T) {
	cases := []Options{
		{}, // zero value: the paper's defaults
		{Engine: EngineFM, MatchingRatio: 0.75, Threshold: 50, Tolerance: 0.2, Seed: 42},
		{Engine: EnginePROP, Starts: 8, Parallelism: 4, IntraParallelism: 2},
		{Engine: EngineCLIPPROP, Audit: true, Seed: -7},
	}
	for i, o := range cases {
		data, err := o.CanonicalJSON()
		if err != nil {
			t.Fatalf("case %d: CanonicalJSON: %v", i, err)
		}
		back, err := ParseOptionsJSON(data)
		if err != nil {
			t.Fatalf("case %d: ParseOptionsJSON: %v", i, err)
		}
		data2, err := back.CanonicalJSON()
		if err != nil {
			t.Fatalf("case %d: re-encode: %v", i, err)
		}
		if !bytes.Equal(data, data2) {
			t.Errorf("case %d: round trip not canonical:\n%s\n%s", i, data, data2)
		}
	}
}

// Semantically equal options (explicit defaults vs zero values) must
// encode byte-identically — that is what makes the encoding canonical.
func TestOptionsCanonicalJSONMaterializesDefaults(t *testing.T) {
	a, err := Options{}.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	b, err := Options{Engine: EngineFM, MatchingRatio: 0.5, Starts: 1}.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("explicit defaults encode differently:\n%s\n%s", a, b)
	}
}

// TestOptionsWireFormatPinned pins the canonical bytes and the
// fingerprint of the zero Options: mlpartd keys its result cache on
// them and matches journaled resubmissions by them, so they must not
// move. The max_retries and attempt_timeout_ns keys stay in the format
// with their old defaults; a request that sets them still decodes, and
// runs and fingerprints exactly like one that does not.
func TestOptionsWireFormatPinned(t *testing.T) {
	const (
		wantJSON = `{"engine":"fm","matching_ratio":0.5,"threshold":0,"tolerance":0,"seed":0,"starts":1,"parallelism":0,"intra_parallelism":0,"max_retries":1,"attempt_timeout_ns":0,"audit":false}`
		wantFP   = "2df2126e9846b033168e149d3a49cab434675148143616a1ca0d324554d5f955"
	)
	data, err := Options{}.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != wantJSON {
		t.Errorf("canonical JSON of the zero Options moved:\n got %s\nwant %s", data, wantJSON)
	}
	fp, err := Options{}.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fp != wantFP {
		t.Errorf("fingerprint of the zero Options = %s, want %s", fp, wantFP)
	}

	legacy, err := ParseOptionsJSON([]byte(`{"max_retries": 3, "attempt_timeout_ns": 5000000}`))
	if err != nil {
		t.Fatalf("legacy keys no longer decode: %v", err)
	}
	plain, err := ParseOptionsJSON([]byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	if fp, err := legacy.Fingerprint(); err != nil || fp != wantFP {
		t.Errorf("legacy keys fingerprint %s (%v), want %s", fp, err, wantFP)
	}
	if data, err := legacy.CanonicalJSON(); err != nil || string(data) != wantJSON {
		t.Errorf("legacy keys encode as %s (%v), want %s", data, err, wantJSON)
	}

	c, err := GenerateCircuit(CircuitSpec{Name: "wire", Cells: 300, Nets: 340, Pins: 1100, Seed: 71})
	if err != nil {
		t.Fatal(err)
	}
	pl, _, err := Bipartition(c.H, legacy)
	if err != nil {
		t.Fatal(err)
	}
	pp, _, err := Bipartition(c.H, plain)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(pl.Part, pp.Part) {
		t.Error("legacy keys changed the partition")
	}
}

func TestParseOptionsJSONStrict(t *testing.T) {
	cases := []struct {
		name, in, wantErr string
	}{
		{"unknown field", `{"engine":"clip","typo_knob":3}`, "typo_knob"},
		{"unknown engine", `{"engine":"simulated-annealing"}`, "unknown engine"},
		{"negative starts", `{"starts":-1}`, "starts"},
		{"negative parallelism", `{"parallelism":-2}`, "parallelism"},
		{"negative timeout", `{"attempt_timeout_ns":-5}`, "attempt_timeout_ns"},
		{"trailing data", `{"engine":"fm"} {"engine":"clip"}`, "trailing"},
		{"trailing brace", `{}}`, "trailing"},
		{"trailing bracket", `{}]`, "trailing"},
		{"malformed", `{`, "options JSON"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ParseOptionsJSON([]byte(c.in))
			if err == nil {
				t.Fatalf("ParseOptionsJSON(%s) succeeded, want error", c.in)
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("error %q does not mention %q", err, c.wantErr)
			}
		})
	}

	// Absent fields select the documented defaults.
	o, err := ParseOptionsJSON([]byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	if o.Engine != EngineFM {
		t.Errorf("absent engine parsed as %v, want the zero value (FM)", o.Engine)
	}
}

func TestOptionsCanonicalJSONRejectsNaN(t *testing.T) {
	bad := []Options{
		{MatchingRatio: nan()},
		{Tolerance: nan()},
		{MatchingRatio: inf()},
	}
	for i, o := range bad {
		if _, err := o.CanonicalJSON(); err == nil {
			t.Errorf("case %d: CanonicalJSON accepted a non-finite float", i)
		}
		if _, err := o.Fingerprint(); err == nil {
			t.Errorf("case %d: Fingerprint accepted a non-finite float", i)
		}
	}
}

func TestOptionsFingerprint(t *testing.T) {
	fp := func(o Options) string {
		t.Helper()
		s, err := o.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	base := fp(Options{Seed: 1})

	if len(base) != 64 {
		t.Fatalf("fingerprint %q is not a sha256 hex digest", base)
	}
	// Worker counts and Audit never change the solution: same entry.
	if got := fp(Options{Seed: 1, Parallelism: 4}); got != base {
		t.Error("Parallelism split the fingerprint")
	}
	for _, intra := range []int{1, 8} {
		if got := fp(Options{Seed: 1, IntraParallelism: intra}); got != base {
			t.Errorf("IntraParallelism %d split the fingerprint", intra)
		}
	}
	if got := fp(Options{Seed: 1, Audit: true}); got != base {
		t.Error("Audit split the fingerprint")
	}
	// Result-affecting fields must split it.
	if got := fp(Options{Seed: 2}); got == base {
		t.Error("Seed did not change the fingerprint")
	}
	if got := fp(Options{Seed: 1, Engine: EngineCLIP}); got == base {
		t.Error("Engine did not change the fingerprint")
	}
	if got := fp(Options{Seed: 1, Starts: 4}); got == base {
		t.Error("Starts did not change the fingerprint")
	}
	if got := fp(Options{Seed: 1, Tolerance: 0.3}); got == base {
		t.Error("Tolerance did not change the fingerprint")
	}
}

func TestEngineNameRoundTrip(t *testing.T) {
	for _, e := range []FMConfig{{Engine: EngineFM}, {Engine: EngineCLIP}, {Engine: EnginePROP}, {Engine: EngineCLIPPROP}} {
		name, err := EngineName(e.Engine)
		if err != nil {
			t.Fatal(err)
		}
		back, err := ParseEngine(name)
		if err != nil {
			t.Fatal(err)
		}
		if back != e.Engine {
			t.Errorf("engine %v -> %q -> %v", e.Engine, name, back)
		}
	}
	if _, err := EngineName(99); err == nil {
		t.Error("EngineName(99) succeeded")
	}
}

func nan() float64 { return math.NaN() }

func inf() float64 { return math.Inf(1) }
