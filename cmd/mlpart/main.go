// Command mlpart partitions a netlist hypergraph from an hMETIS
// .hgr file using the ML multilevel algorithm (Alpert/Huang/Kahng,
// DAC 1997) and writes the block assignment.
//
// Usage:
//
//	mlpart -in circuit.hgr|circuit.netD [-out circuit.part] [-k 2|4]
//	       [-engine clip|fm] [-ratio 0.5] [-threshold 35]
//	       [-tolerance 0.1] [-starts 1] [-parallel 0] [-seed 1997]
//	       [-stats] [-timeout 30s] [-audit] [-chaos site:kind:n]
//	       [-stats-json stats.json] [-v]
//	       [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// -stats-json arms the telemetry collector and writes the run report
// (schema "mlpart-stats/1": per-level coarsening stats, per-pass
// refinement stats, rebalance counters, per-stage wall-clock) as
// indented JSON. Everything except the timings block is
// bit-identical across -parallel values. -v prints a human-readable per-level summary of the winning
// start to stderr. -cpuprofile and -memprofile write pprof profiles of
// the whole run.
//
// With -k 2 it bipartitions (the paper's ML_F / ML_C); with -k 4 it
// quadrisects with the sum-of-degrees gain (§IV.D).
//
// -parallel runs starts under a fault-isolated parallel supervisor
// whose worker pool it bounds (0 = GOMAXPROCS-capped, 1 = sequential;
// the result is bit-identical for every value, but it only helps when
// -starts > 1). Each start runs serially; the library's
// Options.IntraParallelism and mlpartd's intra_parallelism job option
// are accepted and ignored.
//
// Repeatable -chaos flags arm deterministic fault injection
// ("site:kind:n[:start]", e.g. -chaos fm.pass:panic:2) for testing
// the recovery paths. With multiple starts or armed chaos a per-start
// outcome summary is printed to stderr.
//
// A -timeout deadline or a SIGINT/SIGTERM cancels the run
// cooperatively: the best feasible partition found so far is still
// written and the command exits 0 with an "interrupted" note on
// stderr. The exit code is non-zero only when no feasible solution
// exists yet.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"mlpart"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "mlpart:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		in        = flag.String("in", "", "input .hgr netlist (required)")
		out       = flag.String("out", "", "output partition file (default stdout)")
		k         = flag.Int("k", 2, "number of blocks: 2 (bipartition) or 4 (quadrisect)")
		engine    = flag.String("engine", "clip", "refinement engine: clip, fm, prop, or clprop")
		ratio     = flag.Float64("ratio", 0, "matching ratio R in (0,1] (default 0.5 bipartition, 1.0 quadrisect)")
		threshold = flag.Int("threshold", 0, "coarsening threshold T (default 35 bipartition, 100 quadrisect)")
		tolerance = flag.Float64("tolerance", 0.1, "balance tolerance r")
		starts    = flag.Int("starts", 1, "independent runs; best kept")
		parallel  = flag.Int("parallel", 0, "inter-start worker pool for -starts (0 = GOMAXPROCS-capped, 1 = sequential; bit-identical results)")
		seed      = flag.Int64("seed", 1997, "random seed")
		stats     = flag.Bool("stats", false, "print circuit statistics before partitioning")
		timeout   = flag.Duration("timeout", 0, "cancel after this duration, writing the best-so-far partition (0 = no limit)")
		audit     = flag.Bool("audit", false, "run invariant audits at every level transition")
		statsJSON = flag.String("stats-json", "", "write the telemetry run report (schema mlpart-stats/1) as JSON to this path")
		verbose   = flag.Bool("v", false, "print a per-level telemetry summary of the best start to stderr")
		cpuprof   = flag.String("cpuprofile", "", "write a CPU profile to this path")
		memprof   = flag.String("memprofile", "", "write a heap profile to this path")
		chaos     []string
	)
	flag.Func("chaos", "arm a fault: site:kind:n[:start] (repeatable; kind panic|cancel|delay|corrupt)", func(s string) error {
		chaos = append(chaos, s)
		return nil
	})
	flag.Parse()
	if *in == "" {
		flag.Usage()
		return fmt.Errorf("missing -in")
	}
	if *cpuprof != "" {
		cf, cerr := os.Create(*cpuprof)
		if cerr != nil {
			return cerr
		}
		defer cf.Close()
		if cerr := pprof.StartCPUProfile(cf); cerr != nil {
			return cerr
		}
		defer pprof.StopCPUProfile()
	}
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	var h *mlpart.Hypergraph
	if strings.HasSuffix(*in, ".net") || strings.HasSuffix(*in, ".netD") {
		// The ACM/SIGDA benchmark format; a sibling .are file supplies
		// areas when present.
		var areR io.Reader
		if af, aerr := os.Open(strings.TrimSuffix(strings.TrimSuffix(*in, ".netD"), ".net") + ".are"); aerr == nil {
			defer af.Close()
			areR = af
		}
		var c *mlpart.NetDCircuit
		c, err = mlpart.ReadNetD(f, areR)
		if err == nil {
			h = c.H
		}
	} else {
		h, err = mlpart.ReadHGR(f)
	}
	f.Close()
	if err != nil {
		return err
	}
	if *stats {
		s := h.ComputeStats()
		fmt.Fprintf(os.Stderr, "%s: %d modules, %d nets, %d pins (avg net %.2f, max net %d)\n",
			*in, s.Cells, s.Nets, s.Pins, s.AvgNet, s.MaxNet)
	}
	opt := mlpart.Options{
		MatchingRatio: *ratio,
		Threshold:     *threshold,
		Tolerance:     *tolerance,
		Seed:          *seed,
		Starts:        *starts,
		Parallelism:   *parallel,
		Audit:         *audit,
	}
	if *statsJSON != "" || *verbose {
		opt.Telemetry = mlpart.NewTelemetry()
	}
	if len(chaos) > 0 {
		plan, perr := mlpart.ParseFaultSpec(chaos, *seed)
		if perr != nil {
			return perr
		}
		opt.Inject = plan
	}
	switch *engine {
	case "clip":
		opt.Engine = mlpart.EngineCLIP
	case "fm":
		opt.Engine = mlpart.EngineFM
	case "prop":
		opt.Engine = mlpart.EnginePROP
	case "clprop":
		opt.Engine = mlpart.EngineCLIPPROP
	default:
		return fmt.Errorf("unknown engine %q (want clip, fm, prop, or clprop)", *engine)
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	if *timeout > 0 {
		var tcancel context.CancelFunc
		ctx, tcancel = context.WithTimeout(ctx, *timeout)
		defer tcancel()
	}

	start := time.Now()
	var p *mlpart.Partition
	var info mlpart.Info
	switch *k {
	case 2:
		p, info, err = mlpart.BipartitionCtx(ctx, h, opt)
	case 4:
		p, info, err = mlpart.QuadrisectCtx(ctx, h, opt)
	default:
		return fmt.Errorf("-k must be 2 or 4, got %d", *k)
	}
	if err != nil {
		var ierr *mlpart.InternalError
		if errors.As(err, &ierr) && p != nil {
			// Recovered internal panic with a feasible solution: warn
			// and write the last good partition.
			fmt.Fprintf(os.Stderr, "mlpart: recovered internal error (%v); writing last good solution\n", ierr)
		} else {
			return err
		}
	}
	if info.Interrupted {
		fmt.Fprintln(os.Stderr, "mlpart: interrupted; writing best-so-far partition")
	}
	elapsed := time.Since(start)

	fmt.Fprintf(os.Stderr, "cut %d", info.Cut)
	if *k == 4 {
		fmt.Fprintf(os.Stderr, " (sum-of-degrees %d)", info.SumDegrees)
	}
	fmt.Fprintf(os.Stderr, ", %d levels, %d start(s), %.2fs\n", info.Levels, info.Starts, elapsed.Seconds())
	if *starts > 1 || len(chaos) > 0 {
		printStartSummary(info, len(chaos) > 0)
	}
	if *verbose {
		printTelemetrySummary(opt.Telemetry.Report())
	}
	if *statsJSON != "" {
		if werr := writeStatsJSON(*statsJSON, opt.Telemetry.Report()); werr != nil {
			return werr
		}
	}
	areas := p.BlockAreas(h)
	fmt.Fprintf(os.Stderr, "block areas: %v\n", areas)

	w := os.Stdout
	if *out != "" {
		w, err = os.Create(*out)
		if err != nil {
			return err
		}
		defer w.Close()
	}
	if werr := mlpart.WritePartition(w, p); werr != nil {
		return werr
	}
	if *memprof != "" {
		mf, merr := os.Create(*memprof)
		if merr != nil {
			return merr
		}
		defer mf.Close()
		runtime.GC() // settle allocations so the heap profile reflects live data
		if merr := pprof.WriteHeapProfile(mf); merr != nil {
			return merr
		}
	}
	return nil
}

// writeStatsJSON writes the telemetry report to path in the canonical
// -stats-json encoding.
func writeStatsJSON(path string, r *mlpart.Report) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printTelemetrySummary renders the winning start's per-level history
// to stderr in a human-readable form (-v).
func printTelemetrySummary(r *mlpart.Report) {
	if r == nil || r.BestStart < 0 || r.BestStart >= len(r.PerStart) {
		fmt.Fprintln(os.Stderr, "telemetry: no winning start to summarize")
		return
	}
	s := r.PerStart[r.BestStart]
	fmt.Fprintf(os.Stderr, "best start %d (%s): %d level(s), %d pass(es), %d rebalance(s) moving %d cell(s)\n",
		s.Start, s.Outcome, len(s.Coarsening), len(s.Passes), s.Rebalances, s.RebalanceMoved)
	for _, l := range s.Coarsening {
		fmt.Fprintf(os.Stderr, "  level %d: %d cells, %d nets, %d pins (%d pairs, %d singletons, max area %d)\n",
			l.Level, l.Cells, l.Nets, l.Pins, l.MatchedPairs, l.Singletons, l.LargestClusterArea)
	}
	for _, ps := range s.Passes {
		cut := "n/a"
		if ps.CutBefore >= 0 {
			cut = fmt.Sprintf("%d -> %d", ps.CutBefore, ps.CutAfter)
		}
		fmt.Fprintf(os.Stderr, "  level %d %s pass %d: cut %s, moves %d tried / %d kept\n",
			ps.Level, ps.Engine, ps.Pass, cut, ps.MovesTried, ps.MovesKept)
	}
	t := s.Timings
	fmt.Fprintf(os.Stderr, "  stage times: coarsen %.3fms, refine %.3fms, project %.3fms, rebalance %.3fms (start total %.3fms)\n",
		float64(t.CoarsenNS)/1e6, float64(t.RefineNS)/1e6, float64(t.ProjectNS)/1e6,
		float64(t.RebalanceNS)/1e6, float64(t.TotalNS)/1e6)
}

// printStartSummary writes the per-start outcome taxonomy to stderr:
// one aggregate line always, plus one line per start when fault
// injection is armed (detail).
func printStartSummary(info mlpart.Info, detail bool) {
	counts := make(map[mlpart.StartOutcome]int)
	for _, r := range info.StartReports {
		counts[r.Outcome]++
	}
	var parts []string
	for _, o := range []mlpart.StartOutcome{
		mlpart.StartOK, mlpart.StartRecovered, mlpart.StartRetried,
		mlpart.StartTimedOut, mlpart.StartCancelled, mlpart.StartFailed,
	} {
		if n := counts[o]; n > 0 {
			parts = append(parts, fmt.Sprintf("%d %s", n, o))
		}
	}
	fmt.Fprintf(os.Stderr, "starts: %s; best start %d\n", strings.Join(parts, ", "), info.BestStart)
	if !detail {
		return
	}
	for _, r := range info.StartReports {
		line := fmt.Sprintf("  start %d: %s (%d attempt(s), %d fault(s)", r.Start, r.Outcome, r.Attempts, r.Faults)
		if r.Cost >= 0 {
			line += fmt.Sprintf(", cost %d", r.Cost)
		}
		line += ")"
		if r.Err != nil {
			line += ": " + r.Err.Error()
		}
		fmt.Fprintln(os.Stderr, line)
	}
}
