package mlpart

// End-to-end tests of the command-line tools: each binary is built
// once into a temp dir and driven through its primary flows.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"mlpart/internal/hypergraph"
)

var (
	buildOnce sync.Once
	buildDir  string
	buildErr  error
)

func buildTools(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		buildDir, buildErr = os.MkdirTemp("", "mlpart-bins")
		if buildErr != nil {
			return
		}
		for _, tool := range []string{"mlpart", "benchgen", "experiments", "cutverify", "drawplace", "statscheck", "mlpartd"} {
			cmd := exec.Command("go", "build", "-o", filepath.Join(buildDir, tool), "./cmd/"+tool)
			if out, err := cmd.CombinedOutput(); err != nil {
				buildErr = err
				t.Logf("build %s: %s", tool, out)
				return
			}
		}
	})
	if buildErr != nil {
		t.Fatalf("building tools: %v", buildErr)
	}
	return buildDir
}

func TestCmdBenchgenAndMlpart(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bins := buildTools(t)
	dir := t.TempDir()

	// benchgen writes .hgr and .pads files.
	out, err := exec.Command(filepath.Join(bins, "benchgen"),
		"-scale", "tiny", "-dir", dir, "-only", "balu,bm1").CombinedOutput()
	if err != nil {
		t.Fatalf("benchgen: %v\n%s", err, out)
	}
	for _, f := range []string{"balu.hgr", "balu.pads", "bm1.hgr", "bm1.pads"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Fatalf("benchgen did not write %s: %v", f, err)
		}
	}

	// mlpart bipartitions the generated netlist.
	partPath := filepath.Join(dir, "balu.part")
	out, err = exec.Command(filepath.Join(bins, "mlpart"),
		"-in", filepath.Join(dir, "balu.hgr"),
		"-out", partPath, "-k", "2", "-stats").CombinedOutput()
	if err != nil {
		t.Fatalf("mlpart: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "cut ") {
		t.Errorf("mlpart output missing cut report:\n%s", out)
	}
	// The partition file must parse and cover every cell.
	pf, err := os.Open(partPath)
	if err != nil {
		t.Fatal(err)
	}
	defer pf.Close()
	hf, err := os.Open(filepath.Join(dir, "balu.hgr"))
	if err != nil {
		t.Fatal(err)
	}
	defer hf.Close()
	h, err := ReadHGR(hf)
	if err != nil {
		t.Fatal(err)
	}
	p, err := ReadPartition(pf, h.NumCells())
	if err != nil {
		t.Fatal(err)
	}
	if p.K != 2 {
		t.Errorf("K = %d, want 2", p.K)
	}
	if !p.IsBalanced(h, Balance(h, 2, 0.1)) {
		t.Error("CLI partition unbalanced")
	}

	// netD-format flow: generate, then partition from .netD input.
	ndDir := t.TempDir()
	if out, err := exec.Command(filepath.Join(bins, "benchgen"),
		"-scale", "tiny", "-dir", ndDir, "-only", "balu", "-format", "netd").CombinedOutput(); err != nil {
		t.Fatalf("benchgen netd: %v\n%s", err, out)
	}
	for _, f := range []string{"balu.netD", "balu.are", "balu.pads"} {
		if _, err := os.Stat(filepath.Join(ndDir, f)); err != nil {
			t.Fatalf("benchgen netd did not write %s: %v", f, err)
		}
	}
	if out, err := exec.Command(filepath.Join(bins, "mlpart"),
		"-in", filepath.Join(ndDir, "balu.netD")).CombinedOutput(); err != nil {
		t.Fatalf("mlpart netD input: %v\n%s", err, out)
	}

	// Quadrisection through the CLI: without -engine, -k 4 runs FM and
	// writes the bytes of an explicit -engine fm.
	quad := func(name string, engine ...string) []byte {
		t.Helper()
		path := filepath.Join(dir, name)
		args := append([]string{"-in", filepath.Join(dir, "bm1.hgr"), "-k", "4", "-out", path}, engine...)
		if out, err := exec.Command(filepath.Join(bins, "mlpart"), args...).CombinedOutput(); err != nil {
			t.Fatalf("mlpart -k 4 %v: %v\n%s", engine, err, out)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if def, fm := quad("default.part"), quad("fm.part", "-engine", "fm"); string(def) != string(fm) {
		t.Error("-k 4 without -engine wrote other bytes than -k 4 -engine fm")
	}
	quad("clip.part", "-engine", "clip")

	// Error paths. An invalid option prints the library's error, whose
	// "mlpart: " prefix is printed once.
	for _, c := range []struct {
		flag, value, want string
	}{
		{"-k", "3", "mlpart: k must be 2 or 4, got 3\n"},
		{"-starts", "-1", "mlpart: starts -1 < 1\n"},
	} {
		var stderr strings.Builder
		cmd := exec.Command(filepath.Join(bins, "mlpart"),
			"-in", filepath.Join(dir, "balu.hgr"), "-out", os.DevNull, c.flag, c.value)
		cmd.Stderr = &stderr
		if err := cmd.Run(); err == nil {
			t.Errorf("%s %s should fail", c.flag, c.value)
		} else if stderr.String() != c.want {
			t.Errorf("%s %s: stderr %q, want %q", c.flag, c.value, stderr.String(), c.want)
		}
	}
	// An unknown -engine fails with ParseEngine's error, the one the
	// options JSON "engine" field reports too.
	_, perr := ParseEngine("magic")
	if perr == nil {
		t.Fatal(`ParseEngine("magic") accepted an unknown engine`)
	}
	if out, err := exec.Command(filepath.Join(bins, "mlpart"),
		"-in", filepath.Join(dir, "balu.hgr"), "-engine", "magic").CombinedOutput(); err == nil {
		t.Errorf("bad engine should fail, got:\n%s", out)
	} else if !strings.Contains(string(out), perr.Error()) {
		t.Errorf("bad engine: output %q lacks ParseEngine's error %q", out, perr)
	}
	if _, err := exec.Command(filepath.Join(bins, "mlpart"),
		"-in", filepath.Join(dir, "missing.hgr")).CombinedOutput(); err == nil {
		t.Error("missing input should fail")
	}
}

// TestCmdMlpartTimeout: a -timeout that expires immediately must
// still write a feasible best-so-far partition, report "interrupted"
// on stderr, and exit 0 — interruption is graceful degradation, not
// failure. Its stats report, whose later starts were skipped, must
// pass statscheck.
func TestCmdMlpartTimeout(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bins := buildTools(t)
	dir := t.TempDir()
	if out, err := exec.Command(filepath.Join(bins, "benchgen"),
		"-scale", "tiny", "-dir", dir, "-only", "balu").CombinedOutput(); err != nil {
		t.Fatalf("benchgen: %v\n%s", err, out)
	}
	hgr := filepath.Join(dir, "balu.hgr")
	part := filepath.Join(dir, "balu.part")
	stats := filepath.Join(dir, "stats.json")
	out, err := exec.Command(filepath.Join(bins, "mlpart"),
		"-in", hgr, "-out", part, "-timeout", "1ns", "-starts", "4", "-stats-json", stats).CombinedOutput()
	if err != nil {
		t.Fatalf("mlpart -timeout 1ns should still exit 0: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "interrupted") {
		t.Errorf("no interruption note on stderr:\n%s", out)
	}
	if out, err := exec.Command(filepath.Join(bins, "statscheck"),
		"-in", stats, "-min-levels", "0", "-min-passes", "0").CombinedOutput(); err != nil {
		t.Errorf("statscheck on the interrupted run's report: %v\n%s", err, out)
	}
	hf, err := os.Open(hgr)
	if err != nil {
		t.Fatal(err)
	}
	defer hf.Close()
	h, err := ReadHGR(hf)
	if err != nil {
		t.Fatal(err)
	}
	pf, err := os.Open(part)
	if err != nil {
		t.Fatal(err)
	}
	defer pf.Close()
	p, err := ReadPartition(pf, h.NumCells())
	if err != nil {
		t.Fatal(err)
	}
	if !p.IsBalanced(h, Balance(h, 2, 0.1)) {
		t.Error("best-so-far partition violates the balance bound")
	}

	// -audit composes with the normal flow.
	if out, err := exec.Command(filepath.Join(bins, "mlpart"),
		"-in", hgr, "-audit").CombinedOutput(); err != nil {
		t.Fatalf("mlpart -audit: %v\n%s", err, out)
	}
}

// TestCmdStatsJSON drives the telemetry flags end to end: -stats-json
// must produce a schema-valid report that statscheck accepts, the
// timing-stripped report must be byte-identical across -parallel
// values, and -v must print the per-level summary.
func TestCmdStatsJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bins := buildTools(t)
	dir := t.TempDir()
	hgr := filepath.Join("cmd", "mlpart", "testdata", "smoke.hgr")

	stripped := make(map[int]string)
	for _, par := range []int{1, 4} {
		stats := filepath.Join(dir, fmt.Sprintf("stats-p%d.json", par))
		out, err := exec.Command(filepath.Join(bins, "mlpart"),
			"-in", hgr, "-out", os.DevNull, "-starts", "3",
			"-parallel", fmt.Sprint(par), "-stats-json", stats, "-v").CombinedOutput()
		if err != nil {
			t.Fatalf("mlpart -stats-json (parallel %d): %v\n%s", par, err, out)
		}
		if !strings.Contains(string(out), "best start") || !strings.Contains(string(out), "level 0:") ||
			!strings.Contains(string(out), "coarsening stopped: ") {
			t.Errorf("-v summary missing from stderr:\n%s", out)
		}
		// statscheck validates and emits the stripped canonical form.
		sout, err := exec.Command(filepath.Join(bins, "statscheck"),
			"-in", stats, "-strip").Output()
		if err != nil {
			t.Fatalf("statscheck (parallel %d): %v", par, err)
		}
		stripped[par] = string(sout)
	}
	if stripped[1] != stripped[4] {
		t.Errorf("stripped stats differ between -parallel 1 and 4:\n%s\n---\n%s",
			stripped[1], stripped[4])
	}
	var r Report
	if err := json.Unmarshal([]byte(stripped[1]), &r); err != nil {
		t.Fatalf("stripped output is not a Report: %v", err)
	}
	if r.Schema != "mlpart-stats/1" || len(r.PerStart) != 3 {
		t.Errorf("unexpected report header: %+v", r)
	}

	// A corrupted report must fail validation.
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"schema":"mlpart-stats/0"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if out, err := exec.Command(filepath.Join(bins, "statscheck"), "-in", bad).CombinedOutput(); err == nil {
		t.Errorf("statscheck accepted a bad schema:\n%s", out)
	}

	// Profiles write and are non-empty.
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	if out, err := exec.Command(filepath.Join(bins, "mlpart"),
		"-in", hgr, "-out", os.DevNull,
		"-cpuprofile", cpu, "-memprofile", mem).CombinedOutput(); err != nil {
		t.Fatalf("mlpart -cpuprofile: %v\n%s", err, out)
	}
	for _, p := range []string{cpu, mem} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Errorf("profile %s missing or empty (err %v)", p, err)
		}
	}
}

func TestCmdCutverify(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bins := buildTools(t)
	dir := t.TempDir()
	if out, err := exec.Command(filepath.Join(bins, "benchgen"),
		"-scale", "tiny", "-dir", dir, "-only", "balu").CombinedOutput(); err != nil {
		t.Fatalf("benchgen: %v\n%s", err, out)
	}
	hgr := filepath.Join(dir, "balu.hgr")
	part := filepath.Join(dir, "balu.part")
	if out, err := exec.Command(filepath.Join(bins, "mlpart"),
		"-in", hgr, "-out", part).CombinedOutput(); err != nil {
		t.Fatalf("mlpart: %v\n%s", err, out)
	}
	out, err := exec.Command(filepath.Join(bins, "cutverify"),
		"-hgr", hgr, "-part", part).CombinedOutput()
	if err != nil {
		t.Fatalf("cutverify: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "balance:         OK") {
		t.Errorf("cutverify output:\n%s", out)
	}
	// A deliberately unbalanced partition must fail.
	badPart := filepath.Join(dir, "bad.part")
	h, err := os.Open(hgr)
	if err != nil {
		t.Fatal(err)
	}
	hg, err := ReadHGR(h)
	h.Close()
	if err != nil {
		t.Fatal(err)
	}
	bad := hypergraph.NewPartition(hg.NumCells(), 2)
	bad.Part[0] = 1 // two blocks present, grossly unbalanced
	bf, err := os.Create(badPart)
	if err != nil {
		t.Fatal(err)
	}
	if err := WritePartition(bf, bad); err != nil {
		t.Fatal(err)
	}
	bf.Close()
	if out, err := exec.Command(filepath.Join(bins, "cutverify"),
		"-hgr", hgr, "-part", badPart, "-k", "2").CombinedOutput(); err == nil {
		t.Errorf("unbalanced partition accepted:\n%s", out)
	}
}

func TestCmdDrawplace(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bins := buildTools(t)
	dir := t.TempDir()
	if out, err := exec.Command(filepath.Join(bins, "benchgen"),
		"-scale", "tiny", "-dir", dir, "-only", "balu").CombinedOutput(); err != nil {
		t.Fatalf("benchgen: %v\n%s", err, out)
	}
	svg := filepath.Join(dir, "balu.svg")
	if out, err := exec.Command(filepath.Join(bins, "drawplace"),
		"-in", filepath.Join(dir, "balu.hgr"), "-out", svg).CombinedOutput(); err != nil {
		t.Fatalf("drawplace: %v\n%s", err, out)
	}
	data, err := os.ReadFile(svg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "<svg") || !strings.Contains(string(data), "</svg>") {
		t.Errorf("output is not an SVG:\n%.200s", data)
	}
	if !strings.Contains(string(data), "circle") {
		t.Error("SVG has no cells")
	}
}

func TestCmdExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bins := buildTools(t)

	out, err := exec.Command(filepath.Join(bins, "experiments"), "-list").CombinedOutput()
	if err != nil {
		t.Fatalf("experiments -list: %v\n%s", err, out)
	}
	for _, id := range []string{"table2", "table9", "fig4", "placement-hpwl"} {
		if !strings.Contains(string(out), id) {
			t.Errorf("-list output missing %s", id)
		}
	}

	out, err = exec.Command(filepath.Join(bins, "experiments"),
		"-table", "table3", "-runs", "2", "-circuits", "balu").CombinedOutput()
	if err != nil {
		t.Fatalf("experiments -table table3: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "MIN-CLIP") || !strings.Contains(string(out), "balu") {
		t.Errorf("table3 output malformed:\n%s", out)
	}

	if out, err := exec.Command(filepath.Join(bins, "experiments"),
		"-table", "no-such-table").CombinedOutput(); err == nil {
		t.Errorf("unknown table should fail, got:\n%s", out)
	}
}

func TestCmdExperimentsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bins := buildTools(t)
	run := func() string {
		out, err := exec.Command(filepath.Join(bins, "experiments"),
			"-table", "table2", "-runs", "3", "-circuits", "balu,bm1", "-seed", "7").CombinedOutput()
		if err != nil {
			t.Fatalf("experiments: %v\n%s", err, out)
		}
		// Strip the timing line, which varies.
		lines := strings.Split(string(out), "\n")
		var kept []string
		for _, l := range lines {
			if !strings.HasPrefix(l, "(") {
				kept = append(kept, l)
			}
		}
		return strings.Join(kept, "\n")
	}
	if a, b := run(), run(); a != b {
		t.Errorf("same seed produced different experiment output:\n%s\n---\n%s", a, b)
	}
}

// TestCmdMlpartdSmoke runs mlpartd as a real subprocess (no journal)
// through the probes, a k = 2 job, the same job again as a
// byte-identical cache hit, and a k = 4 job. SIGTERM then takes the
// production drain path, and the final stats JSON on stdout is piped
// into statscheck via stdin, covering the mlpartd-stats/1 validation
// path and the stdin input mode at once. `make serve-smoke` runs
// exactly this test.
func TestCmdMlpartdSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bins := buildTools(t)
	hgr, err := os.ReadFile(filepath.Join("cmd", "mlpart", "testdata", "smoke.hgr"))
	if err != nil {
		t.Fatal(err)
	}
	d := startDaemon(t, bins, t.TempDir())
	base := "http://" + d.addr
	client := &http.Client{Timeout: 30 * time.Second}
	get := func(path string) (*http.Response, []byte) {
		t.Helper()
		resp, err := client.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s (%v): %s", path, resp.Status, err, data)
		}
		return resp, data
	}
	// job submits one job, waits for it to complete, and returns its
	// result document and X-Mlpartd-Cache header.
	job := func(k int) ([]byte, string) {
		t.Helper()
		body, err := json.Marshal(map[string]any{
			"hgr": string(hgr), "k": k,
			"options": map[string]any{"seed": 1997, "starts": 2},
		})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("submit k=%d: %v", k, err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var v struct {
			ID     string `json:"id"`
			Status string `json:"status"`
		}
		if resp.StatusCode != http.StatusAccepted || json.Unmarshal(data, &v) != nil {
			t.Fatalf("submit k=%d: %s: %s", k, resp.Status, data)
		}
		if _, data = get("/v1/jobs/" + v.ID + "?wait_ms=25000"); json.Unmarshal(data, &v) != nil || v.Status != "completed" {
			t.Fatalf("job %s (k=%d) did not complete: %s", v.ID, k, data)
		}
		resp, res := get("/v1/jobs/" + v.ID + "/result")
		return res, resp.Header.Get("X-Mlpartd-Cache")
	}

	get("/healthz")
	get("/readyz")
	first, cache1 := job(2)
	second, cache2 := job(2)
	if cache1 != "miss" || cache2 != "hit" {
		t.Errorf("X-Mlpartd-Cache = %q then %q, want miss then hit", cache1, cache2)
	}
	if !bytes.Equal(first, second) {
		t.Errorf("cache hit result differs from computed result (%d vs %d bytes)", len(first), len(second))
	}
	quad, _ := job(4)
	var doc struct {
		K int `json:"k"`
	}
	if err := json.Unmarshal(quad, &doc); err != nil || doc.K != 4 {
		t.Errorf("k=4 result document: %v: %s", err, quad)
	}

	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	if d.wait() || !d.cmd.ProcessState.Success() {
		t.Fatalf("mlpartd did not drain cleanly: %v\nstderr: %s", d.cmd.ProcessState, d.stderr)
	}
	out := d.stdout.Bytes()
	var rep struct {
		Schema    string `json:"schema"`
		Accepted  int64  `json:"accepted"`
		Completed int64  `json:"completed"`
		CacheHits int64  `json:"cache_hits"`
		Draining  bool   `json:"draining"`
	}
	if err := json.Unmarshal(out, &rep); err != nil {
		t.Fatalf("drain stats output: %v\n%s", err, out)
	}
	if rep.Schema != "mlpartd-stats/1" || rep.Accepted != 3 || rep.Completed != 3 ||
		rep.CacheHits != 1 || !rep.Draining {
		t.Errorf("unexpected drain stats: %+v", rep)
	}

	// statscheck consumes the service snapshot from stdin.
	cmd := exec.Command(filepath.Join(bins, "statscheck"))
	cmd.Stdin = bytes.NewReader(out)
	if sout, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("statscheck < mlpartd stats: %v\n%s", err, sout)
	} else if !strings.Contains(string(sout), "service") {
		t.Errorf("statscheck did not report the service path:\n%s", sout)
	}

	// A snapshot violating the accounting ledger must fail.
	bad := strings.Replace(string(out), `"completed": 3`, `"completed": 2`, 1)
	if bad == string(out) {
		t.Fatalf("could not corrupt the snapshot:\n%s", out)
	}
	cmd = exec.Command(filepath.Join(bins, "statscheck"), "-in", "-")
	cmd.Stdin = strings.NewReader(bad)
	if sout, err := cmd.CombinedOutput(); err == nil {
		t.Errorf("statscheck accepted a ledger-violating snapshot:\n%s", sout)
	} else if !strings.Contains(string(sout), "accounting") {
		t.Errorf("unexpected rejection message:\n%s", sout)
	}
}

// TestCmdStatscheckStdinRunReport pipes an mlpart run report through
// statscheck's stdin path: schema auto-detection must route it to the
// mlpart-stats/1 validator.
func TestCmdStatscheckStdinRunReport(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bins := buildTools(t)
	dir := t.TempDir()
	hgr := filepath.Join("cmd", "mlpart", "testdata", "smoke.hgr")
	stats := filepath.Join(dir, "stats.json")
	if out, err := exec.Command(filepath.Join(bins, "mlpart"),
		"-in", hgr, "-out", os.DevNull, "-stats-json", stats).CombinedOutput(); err != nil {
		t.Fatalf("mlpart -stats-json: %v\n%s", err, out)
	}
	data, err := os.ReadFile(stats)
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(filepath.Join(bins, "statscheck"))
	cmd.Stdin = strings.NewReader(string(data))
	if sout, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("statscheck < run report: %v\n%s", err, sout)
	} else if !strings.Contains(string(sout), "starts") {
		t.Errorf("stdin run report not validated as run report:\n%s", sout)
	}
}
