package mlpart

// Fuzz targets over the public entry points. FuzzPipeline runs the
// whole pipeline on small fuzzed hypergraphs: the coarsening hierarchy
// must be a pure function of the seed, and every partition must be
// valid, balanced and truthfully reported. FuzzOptionsJSON pins the
// canonical options encoding that mlpartd keys its result cache on.
// The checked-in corpora under testdata/fuzz run with every `go test`.

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"slices"
	"testing"

	"mlpart/internal/core"
	"mlpart/internal/oracle"
)

// fuzzHypergraph decodes a small hypergraph from fuzz bytes: data[0]
// picks the cell count (2..64), data[1] whether cells get areas 1..3
// (odd) or unit areas, and the rest is a sequence of nets, each a
// header byte (size 2..7) followed by that many pin bytes. The Builder
// dedups pins and drops nets left with fewer than two.
func fuzzHypergraph(data []byte) *Hypergraph {
	n := 2
	if len(data) > 0 {
		n += int(data[0]) % 63
	}
	b := NewBuilder(n)
	if len(data) > 2 && data[1]%2 == 1 {
		for v := 0; v < n; v++ {
			b.SetArea(v, 1+int64(data[2+v%(len(data)-2)])%3)
		}
	}
	if len(data) > 2 {
		data = data[2:]
	} else {
		data = nil
	}
	for nets := 0; len(data) > 0 && nets < 256; nets++ {
		size := 2 + int(data[0])%6
		data = data[1:]
		if size > len(data) {
			size = len(data)
		}
		pins := make([]int, size)
		for i := range pins {
			pins[i] = int(data[i]) % n
		}
		data = data[size:]
		b.AddNet(pins...)
	}
	return b.MustBuild()
}

// sameHierarchy reports whether two coarsening hierarchies are equal
// level by level: the clusterings and every coarse net's pin list.
func sameHierarchy(ha, hb []*Hypergraph, ca, cb []*Clustering) bool {
	if len(ha) != len(hb) || len(ca) != len(cb) {
		return false
	}
	for i := range ca {
		if ca[i].NumClusters != cb[i].NumClusters || !slices.Equal(ca[i].CellToCluster, cb[i].CellToCluster) {
			return false
		}
	}
	for i := range ha {
		a, b := ha[i], hb[i]
		if a.NumCells() != b.NumCells() || a.NumNets() != b.NumNets() || a.TotalArea() != b.TotalArea() {
			return false
		}
		for e := 0; e < a.NumNets(); e++ {
			if a.NetWeight(e) != b.NetWeight(e) || !slices.Equal(a.Pins(e), b.Pins(e)) {
				return false
			}
		}
	}
	return true
}

func FuzzPipeline(f *testing.F) {
	f.Add([]byte{30, 0, 1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 0, 11, 12, 4, 13, 14, 15, 16, 17, 18}, int64(1), byte(0), byte(9), byte(3))
	f.Add([]byte{63, 1, 5, 1, 2, 3, 4, 5, 6, 7, 2, 9, 9, 9, 1, 40, 41, 42, 3, 50, 51, 52, 53, 54}, int64(1997), byte(1), byte(19), byte(0))
	f.Add([]byte{0}, int64(-3), byte(1), byte(0), byte(0))
	f.Fuzz(func(t *testing.T, data []byte, seed int64, kSel, ratioSel, thresholdSel byte) {
		h := fuzzHypergraph(data)
		k := 2
		if kSel%2 == 1 {
			k = 4
		}
		ratio := float64(1+int(ratioSel)%20) / 20 // 0.05 .. 1.0
		threshold := 2 + int(thresholdSel)%40
		merge := kSel&2 != 0

		// The same seed builds the same hierarchy.
		hcfg := core.Config{Threshold: threshold, Ratio: ratio, MergeParallelNets: merge}
		h0, c0, err := core.Hierarchy(h, hcfg, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		h1, c1, err := core.Hierarchy(h, hcfg, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		if !sameHierarchy(h0, h1, c0, c1) {
			t.Fatal("hierarchy differs between two runs on the same seed")
		}

		// The partition is valid, balanced and truthfully reported.
		opt := Options{Seed: seed, MatchingRatio: ratio, Threshold: threshold, Parallelism: 1}
		var p *Partition
		var info Info
		if k == 2 {
			p, info, err = Bipartition(h, opt)
		} else {
			p, info, err = Quadrisect(h, opt)
		}
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if !oracle.Validate(h, p, k) {
			t.Fatalf("k=%d: invalid partition", k)
		}
		if !oracle.Balanced(h, p, 0.1) {
			t.Fatalf("k=%d: balance bound violated", k)
		}
		if want := oracle.Cut(h, p); info.Cut != want {
			t.Fatalf("k=%d: reported cut %d, oracle %d", k, info.Cut, want)
		}
		if want := oracle.SumOfDegrees(h, p); info.SumDegrees != want {
			t.Fatalf("k=%d: reported sum of degrees %d, oracle %d", k, info.SumDegrees, want)
		}
	})
}

func FuzzOptionsJSON(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"engine":"clip","matching_ratio":0.5,"threshold":35,"tolerance":0.1,"seed":1997,"starts":4,"parallelism":2,"intra_parallelism":3,"max_retries":1,"attempt_timeout_ns":0,"audit":true}`))
	f.Add([]byte(`{"engine":"clprop","matching_ratio":-0,"starts":0,"max_retries":-2,"attempt_timeout_ns":5000000}`))
	f.Add([]byte(`{"engine":"nope"}`))
	f.Add([]byte(`{"seed":1} {"seed":2}`))
	f.Add([]byte(`[`))
	f.Add([]byte(`{}}`))
	f.Add([]byte(`{}]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		o, err := ParseOptionsJSON(data) // must never panic
		if err != nil {
			return
		}
		if !json.Valid(data) {
			t.Fatalf("accepted %q, which is not one JSON document", data)
		}
		c1, err := o.CanonicalJSON()
		if err != nil {
			t.Fatalf("accepted options do not encode: %v", err)
		}
		o2, err := ParseOptionsJSON(c1)
		if err != nil {
			t.Fatalf("canonical JSON %s does not parse: %v", c1, err)
		}
		c2, err := o2.CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(c1, c2) {
			t.Fatalf("canonical JSON is not a fixed point:\n%s\n%s", c1, c2)
		}
		f1, err := o.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		f2, err := o2.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		if f1 != f2 {
			t.Fatalf("fingerprint changed across the round trip: %s vs %s", f1, f2)
		}
	})
}
