package mlpart

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"
)

// TestSessionMatchesOneShot runs a mixed job sequence on one Session —
// large and small instances, both entry points, both engines, with
// and without an intra pool — so each job inherits workspaces reserved
// and dirtied by the jobs before it, shrinking and regrowing. Every
// partition, Info and timing-stripped telemetry report must equal the
// package-level call's byte for byte.
func TestSessionMatchesOneShot(t *testing.T) {
	circuit := func(name string, cells int, seed int64) *Hypergraph {
		c, err := GenerateCircuit(CircuitSpec{Name: name, Cells: cells, Nets: cells + cells/10, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return c.H
	}
	large, small := circuit("session-large", 2500, 21), circuit("session-small", 400, 22)
	type runFn func(context.Context, *Hypergraph, Options) (*Partition, Info, error)
	s := NewSession()
	jobs := []struct {
		name          string
		h             *Hypergraph
		opt           Options
		session, once runFn
	}{
		{"large quadrisect", large, Options{Engine: EngineFM, Seed: 1, Starts: 2}, s.QuadrisectCtx, QuadrisectCtx},
		{"small bipartition", small, Options{Engine: EngineFM, Seed: 2, IntraParallelism: 2}, s.BipartitionCtx, BipartitionCtx},
		{"large CLIP bipartition", large, Options{Engine: EngineCLIP, Seed: 3, Starts: 2}, s.BipartitionCtx, BipartitionCtx},
		{"small quadrisect", small, Options{Engine: EngineCLIP, Seed: 4}, s.QuadrisectCtx, QuadrisectCtx},
	}
	for _, job := range jobs {
		run := func(fn runFn) (*Partition, Info, []byte) {
			opt := job.opt
			opt.Telemetry = NewTelemetry()
			p, info, err := fn(context.Background(), job.h, opt)
			if err != nil {
				t.Fatalf("%s: %v", job.name, err)
			}
			r := opt.Telemetry.Report()
			r.StripTimings()
			report, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			return p, info, report
		}
		pS, infoS, repS := run(job.session)
		pO, infoO, repO := run(job.once)
		if !reflect.DeepEqual(pS, pO) {
			t.Errorf("%s: session partition differs from the one-shot call", job.name)
		}
		if !reflect.DeepEqual(infoS, infoO) {
			t.Errorf("%s: session Info %+v, one-shot %+v", job.name, infoS, infoO)
		}
		if string(repS) != string(repO) {
			t.Errorf("%s: timing-stripped telemetry reports differ", job.name)
		}
	}
}
