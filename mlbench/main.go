// Command mlbench is the repository benchmark. It runs one named
// workload against the partitioner, checks every output, and prints
// each metric as a "name value unit" line followed by one JSON result
// line:
//
//	{"correct": true, "attempted": 24, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end set (tracing off).
// With --trace 1 the run instead records spans around every layer call
// — a replay of the pipeline through the layers' public functions and,
// on the service workload, the jobs timed from the client side and
// direct calls into the parser, hasher and journal — and prints the
// per-layer set.
// BENCHMARK.json at the repository root names every metric with its
// unit, direction and regression bound; README.md explains them.
//
// Usage (from the repository root; bench.sh builds the binary first):
//
//	bash mlbench/bench.sh --workload <name|all> [--seed N] [--seconds S] [--trace 0|1] [--repeat N] [--spans file]
//
// "all" and --repeat run each workload in a fresh child process of
// this binary; --repeat N runs seeds seed..seed+N-1 and prints each
// metric's median, quartiles and spread over them.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"sync"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	repeat   int
	spans    string
	// workdir holds the service's temporary journal directories; it
	// lies inside the checkout the benchmark runs from.
	workdir string
}

func (c config) duration() time.Duration {
	return time.Duration(c.seconds * float64(time.Second))
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mlbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload name, or all")
	fs.Int64Var(&cfg.seed, "seed", 1997, "workload seed: circuits and op seeds derive from it")
	fs.Float64Var(&cfg.seconds, "seconds", 15, "measured seconds per run (the op prefix that cut_mean covers always completes)")
	fs.IntVar(&trace, "trace", 0, "1 records layer spans and prints the per-layer metrics")
	fs.IntVar(&cfg.repeat, "repeat", 1, "runs per workload, each in a child process with the next seed")
	fs.StringVar(&cfg.spans, "spans", "", "with --trace 1, write the recorded spans to this JSON file")
	fs.StringVar(&cfg.workdir, "workdir", ".bench_build", "directory for temporary service journals")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = trace == 1
	switch {
	case cfg.workload == "":
		fmt.Fprintln(stderr, "mlbench: --workload is required")
		return 2
	case trace != 0 && trace != 1:
		fmt.Fprintln(stderr, "mlbench: --trace must be 0 or 1")
		return 2
	case cfg.repeat < 1 || cfg.seconds < 0:
		fmt.Fprintln(stderr, "mlbench: --repeat must be >= 1 and --seconds >= 0")
		return 2
	}
	if cfg.workload == "all" || cfg.repeat > 1 {
		if cfg.spans != "" {
			fmt.Fprintln(stderr, "mlbench: --spans needs a single run of one workload")
			return 2
		}
		return runChildren(cfg, stdout, stderr)
	}
	w, err := findWorkload(cfg.workload)
	if err != nil {
		fmt.Fprintln(stderr, "mlbench:", err)
		return 2
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "mlbench:", err)
		return 1
	}
	rep, err := runWorkload(w, cfg, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "mlbench: %s: %v\n", w.name, err)
		return 1
	}
	if err := rep.write(stdout); err != nil {
		fmt.Fprintln(stderr, "mlbench:", err)
		return 1
	}
	if !rep.correct() {
		return 1
	}
	return 0
}

// runWorkload runs one workload in this process.
func runWorkload(w workload, cfg config, log io.Writer) (*report, error) {
	rep := newReport(log)
	var err error
	switch {
	case cfg.trace:
		err = traceWorkload(w, cfg, rep)
	case w.service:
		err = serviceWorkload(w, cfg, rep)
	default:
		err = libraryWorkload(w, cfg, rep)
	}
	return rep, err
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of a run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report accumulates one run's metrics and output checks. Op checks
// may come from several client goroutines, so they go through mu.
type report struct {
	log     io.Writer
	names   []string
	metrics map[string]metric
	samples map[string]int
	digest  string

	mu        sync.Mutex
	attempted int
	failed    int
	// broken records a check that fails the run without belonging to
	// one op, such as an unbalanced service ledger.
	broken bool
	logged int
}

func newReport(log io.Writer) *report {
	return &report{log: log, metrics: make(map[string]metric), samples: make(map[string]int)}
}

// add records a metric; n > 0 is the sample count behind a percentile.
// A non-finite value (a percentile of no samples) fails the run.
func (r *report) add(name string, v float64, unit string, n int) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.check(fmt.Errorf("metric %s has no value", name))
		v = 0
	}
	if _, dup := r.metrics[name]; !dup {
		r.names = append(r.names, name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
	if n > 0 {
		r.samples[name] = n
	}
}

// op counts one attempted op and whether its output check failed.
func (r *report) op(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		r.logLocked(err)
	}
}

// check records a run-level check.
func (r *report) check(err error) {
	if err == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.broken = true
	r.logLocked(err)
}

// logLocked prints the first few check failures to the log.
func (r *report) logLocked(err error) {
	const maxLogged = 20
	if r.logged < maxLogged {
		fmt.Fprintln(r.log, "CHECK FAILED:", err)
	}
	r.logged++
}

func (r *report) correct() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.failed == 0 && !r.broken && r.attempted > 0
}

// setDigest records the FNV-64a digest of the ordered objective list,
// so two runs of one seed can be compared exactly.
func (r *report) setDigest(objectives []int) {
	h := fnv.New64a()
	for _, v := range objectives {
		fmt.Fprintf(h, "%d\n", v)
	}
	r.digest = fmt.Sprintf("%016x", h.Sum64())
}

// write prints the metric lines, the digest and the JSON result line.
func (r *report) write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, name := range r.names {
		m := r.metrics[name]
		fmt.Fprintf(bw, "%s %s %s", name, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
		if n := r.samples[name]; n > 0 {
			fmt.Fprintf(bw, " n=%d", n)
		}
		fmt.Fprintln(bw)
	}
	if r.digest != "" {
		fmt.Fprintln(bw, "cuts_digest", r.digest)
	}
	res := result{Correct: r.correct(), Metrics: r.metrics}
	r.mu.Lock()
	res.Attempted, res.Failed = r.attempted, r.failed
	r.mu.Unlock()
	line, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	bw.Write(line)
	bw.WriteByte('\n')
	return bw.Flush()
}

// setUpRuns is how many times a run builds its state; setup_s is the
// median, so one cold first set-up does not move it, and only the last
// state is kept.
const setUpRuns = 5

// setUp builds the run state setUpRuns times, releasing all but the
// last, and returns it with setup_s: the median build time in seconds
// at nominal host speed, each build scaled by the calibration kernel
// timed right before and right after it.
func setUp[S any](log io.Writer, build func() (S, error), release func(S)) (S, float64, error) {
	var s S
	var times, scales []float64
	cal := newCalibrator()
	for i := 0; i < setUpRuns; i++ {
		if i > 0 {
			release(s)
		}
		before := cal.block()
		t0 := time.Now()
		var err error
		if s, err = build(); err != nil {
			return s, 0, fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(t0).Seconds()
		f := hostScale(append(before, cal.block()...))
		times, scales = append(times, d*f), append(scales, f)
	}
	fmt.Fprintf(log, "mlbench: set-up host scale %.4f (nominal calibration kernel %g ms); unscaled setup_s = setup_s / scale\n",
		median(scales), nominalCalibrationMS)
	return s, median(times), nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runChildren runs every requested (workload, seed) pair in a fresh
// child process, so heap and GC state never leak between runs, and
// summarizes each workload's metrics over its repeats.
func runChildren(cfg config, stdout, stderr io.Writer) int {
	names := []string{cfg.workload}
	if cfg.workload == "all" {
		names = nil
		for _, w := range workloads() {
			names = append(names, w.name)
		}
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "mlbench:", err)
		return 1
	}
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	ok := true
	for _, name := range names {
		var runs []result
		for i := 0; i < cfg.repeat; i++ {
			seed := cfg.seed + int64(i)
			fmt.Fprintf(stdout, "== %s seed %d\n", name, seed)
			var out bytes.Buffer
			cmd := exec.Command(exe, "--workload", name, "--seed", strconv.FormatInt(seed, 10),
				"--seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "--trace", trace, "--workdir", cfg.workdir)
			cmd.Stdout = io.MultiWriter(stdout, &out)
			cmd.Stderr = stderr
			runErr := cmd.Run()
			res, perr := lastResult(out.Bytes())
			if runErr != nil || perr != nil || !res.Correct {
				ok = false
				fmt.Fprintf(stderr, "mlbench: %s seed %d failed: %v\n", name, seed, errors.Join(runErr, perr))
			}
			if perr == nil {
				runs = append(runs, res)
			}
		}
		if cfg.repeat > 1 && len(runs) > 1 {
			printSpread(stdout, name, runs)
		}
	}
	if !ok {
		return 1
	}
	return 0
}

// lastResult decodes the JSON result line a child printed last.
func lastResult(out []byte) (result, error) {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return res, fmt.Errorf("no result line: %w", err)
	}
	return res, nil
}

// printSpread prints, per metric, the median over runs, the quartiles
// and the spreads (Q3-Q1)/median and (max-min)/median.
func printSpread(w io.Writer, name string, runs []result) {
	var metrics []string
	for m := range runs[0].Metrics {
		metrics = append(metrics, m)
	}
	sort.Strings(metrics)
	fmt.Fprintf(w, "== %s: %d runs\n", name, len(runs))
	for _, m := range metrics {
		var xs []float64
		for _, r := range runs {
			if v, ok := r.Metrics[m]; ok {
				xs = append(xs, v.Value)
			}
		}
		if len(xs) < 2 {
			continue
		}
		q1, q2, q3 := percentile(xs, 0.25), median(xs), percentile(xs, 0.75)
		lo, hi := xs[0], xs[0]
		for _, x := range xs {
			lo, hi = min(lo, x), max(hi, x)
		}
		fmt.Fprintf(w, "%-28s median %-12.6g q1 %-12.6g q3 %-12.6g iqr/median %-8.4f range/median %-8.4f %s\n",
			m, q2, q1, q3, (q3-q1)/q2, (hi-lo)/q2, runs[0].Metrics[m].Unit)
	}
}
