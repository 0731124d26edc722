package mlpart

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"testing"
)

// TestPartitionCtxMatchesEntryPoints runs every way into the
// multilevel pipeline for each k, Starts and Parallelism: PartitionCtx,
// the k's wrappers, and Session.PartitionCtx on a cold and on a warm
// Session. Partitions, Info and timing-stripped telemetry reports must
// match byte for byte. A k other than 2 or 4 must fail with Validate's
// error on both PartitionCtx paths before any start runs.
func TestPartitionCtxMatchesEntryPoints(t *testing.T) {
	c, err := GenerateCircuit(CircuitSpec{Name: "entry", Cells: 800, Nets: 880, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	warmup, err := GenerateCircuit(CircuitSpec{Name: "entry-warmup", Cells: 2000, Nets: 2200, Seed: 32})
	if err != nil {
		t.Fatal(err)
	}
	h := c.H
	type runFn func(context.Context, *Hypergraph, int, Options) (*Partition, Info, error)
	wrap := func(f func(*Hypergraph, Options) (*Partition, Info, error)) runFn {
		return func(_ context.Context, h *Hypergraph, _ int, opt Options) (*Partition, Info, error) { return f(h, opt) }
	}
	wrapCtx := func(f func(context.Context, *Hypergraph, Options) (*Partition, Info, error)) runFn {
		return func(ctx context.Context, h *Hypergraph, _ int, opt Options) (*Partition, Info, error) {
			return f(ctx, h, opt)
		}
	}
	wrappers := map[int][]runFn{
		2: {wrap(Bipartition), wrapCtx(BipartitionCtx)},
		4: {wrap(Quadrisect), wrapCtx(QuadrisectCtx)},
	}
	warm := NewSession()
	for _, k := range []int{2, 4} {
		if _, _, err := warm.PartitionCtx(context.Background(), warmup.H, k, Options{Seed: 9}); err != nil {
			t.Fatal(err)
		}
	}
	// run returns what the comparison reads of one call: the
	// partition, Info as text, and the stripped report.
	run := func(fn runFn, k int, opt Options) (*Partition, string, string) {
		opt.Telemetry = NewTelemetry()
		p, info, err := fn(context.Background(), h, k, opt)
		if err != nil {
			t.Fatalf("k=%d %+v: %v", k, opt, err)
		}
		r := opt.Telemetry.Report()
		r.StripTimings()
		report, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return p, fmt.Sprintf("%+v", info), string(report)
	}
	for _, k := range []int{2, 4} {
		for _, starts := range []int{1, 3} {
			for _, par := range []int{1, 4} {
				opt := Options{Seed: 5, Starts: starts, Parallelism: par}
				name := fmt.Sprintf("k=%d starts=%d parallelism=%d", k, starts, par)
				p, info, report := run(PartitionCtx, k, opt)
				if p == nil || p.K != k {
					t.Fatalf("%s: PartitionCtx returned %v", name, p)
				}
				others := map[string]runFn{
					"cold Session": NewSession().PartitionCtx,
					"warm Session": warm.PartitionCtx,
				}
				for i, fn := range wrappers[k] {
					others[fmt.Sprintf("wrapper %d", i)] = fn
				}
				for via, fn := range others {
					q, qinfo, qreport := run(fn, k, opt)
					if !reflect.DeepEqual(p, q) {
						t.Errorf("%s: %s partition differs from PartitionCtx's", name, via)
					}
					if qinfo != info {
						t.Errorf("%s: %s Info %s, PartitionCtx %s", name, via, qinfo, info)
					}
					if qreport != report {
						t.Errorf("%s: %s stripped report differs from PartitionCtx's", name, via)
					}
				}
			}
		}
	}

	for _, k := range []int{0, 3, 8} {
		want := Options{}.Validate(k)
		if want == nil {
			t.Fatalf("Validate(%d) accepted the block count", k)
		}
		for via, fn := range map[string]runFn{"PartitionCtx": PartitionCtx, "Session.PartitionCtx": warm.PartitionCtx} {
			opt := Options{Seed: 5, Starts: 3, Telemetry: NewTelemetry()}
			p, info, err := fn(context.Background(), h, k, opt)
			if err == nil || err.Error() != want.Error() {
				t.Errorf("k=%d %s: error %v, want %v", k, via, err, want)
			}
			if p != nil || info.BestStart != -1 || info.StartReports != nil {
				t.Errorf("k=%d %s: partition %v, BestStart %d, %d start reports; want none and -1", k, via, p != nil, info.BestStart, len(info.StartReports))
			}
			if r := opt.Telemetry.Report(); r.Schema != "" || r.PerStart != nil {
				t.Errorf("k=%d %s: a start ran or the report header was written: %+v", k, via, r)
			}
		}
	}
}

// TestQuadrisectRatioDefault pins the k = 4 ratio rule: with no
// Threshold, R = 0 and an explicit R = 0.5 both run the paper's
// R = 1.0. The two spellings share a fingerprint, so they must give
// the same partition, or a cache keyed by fingerprint would serve one
// for the other.
func TestQuadrisectRatioDefault(t *testing.T) {
	c, err := GenerateCircuit(CircuitSpec{Name: "ratio", Cells: 1500, Nets: 1650, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	def, half, one := Options{Seed: 5}, Options{Seed: 5, MatchingRatio: 0.5}, Options{Seed: 5, MatchingRatio: 1}
	fpDef, err := def.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	fpHalf, err := half.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fpDef != fpHalf {
		t.Fatalf("Options{} fingerprints %s, MatchingRatio 0.5 %s", fpDef, fpHalf)
	}
	run := func(opt Options) *Partition {
		p, _, err := Quadrisect(c.H, opt)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	pDef := run(def)
	if pHalf := run(half); !slices.Equal(pDef.Part, pHalf.Part) {
		t.Error("Options{} and MatchingRatio 0.5 share a fingerprint but give different partitions")
	}
	if pOne := run(one); !slices.Equal(pDef.Part, pOne.Part) {
		t.Error("Options{} does not run R = 1.0 for k = 4")
	}
}
