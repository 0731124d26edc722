package mlpart

// The process-kill crash harness: mlpartd is launched as a real
// subprocess with a write-ahead journal, fed a burst of submissions,
// SIGKILLed at a journal-fault-injected point (-crash-after-appends
// arms the kill on the n-th durable append; a -chaos torn-write
// entry models the dying disk under it), restarted on the same
// journal, and audited: every job the killed process acknowledged
// must still resolve, nothing may run to a second terminal status,
// and the journal itself must pass statscheck -journal validation
// after the dust settles. `make crash-smoke` runs exactly this test.

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

	"mlpart/internal/journal"
	"mlpart/internal/telemetry"
)

// lockedBuf is an io.Writer safe to read while exec's copier
// goroutine is still appending (the daemon may outlive the read).
type lockedBuf struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuf) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuf) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func (b *lockedBuf) Bytes() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]byte(nil), b.buf.Bytes()...)
}

// daemon wraps one mlpartd subprocess.
type daemon struct {
	cmd    *exec.Cmd
	addr   string
	stdout *lockedBuf
	stderr *lockedBuf
}

// startDaemon launches mlpartd on a loopback :0 port with the given
// extra flags and waits for it to publish its address via -addr-file.
func startDaemon(t *testing.T, bins, dir string, extra ...string) *daemon {
	t.Helper()
	addrFile := filepath.Join(dir, fmt.Sprintf("addr-%d", time.Now().UnixNano()))
	args := append([]string{"-addr", "127.0.0.1:0", "-addr-file", addrFile}, extra...)
	d := &daemon{
		cmd:    exec.Command(filepath.Join(bins, "mlpartd"), args...),
		stdout: &lockedBuf{},
		stderr: &lockedBuf{},
	}
	d.cmd.Stdout = d.stdout
	d.cmd.Stderr = d.stderr
	if err := d.cmd.Start(); err != nil {
		t.Fatalf("start mlpartd: %v", err)
	}
	t.Cleanup(func() {
		if d.cmd.ProcessState == nil {
			_ = d.cmd.Process.Kill()
			_ = d.cmd.Wait()
		}
	})
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if data, err := os.ReadFile(addrFile); err == nil && len(data) > 0 {
			d.addr = strings.TrimSpace(string(data))
			return d
		}
		if d.cmd.ProcessState != nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("mlpartd never published its address\nstderr: %s", d.stderr)
	return nil
}

// wait blocks for process exit and reports whether it died by SIGKILL.
func (d *daemon) wait() (killed bool) {
	err := d.cmd.Wait()
	if ee, ok := err.(*exec.ExitError); ok {
		if ws, ok := ee.Sys().(syscall.WaitStatus); ok {
			return ws.Signaled() && ws.Signal() == syscall.SIGKILL
		}
	}
	return false
}

// submitBurst posts n jobs as fast as possible and returns the ids
// that were actually acknowledged with a 202 — the set the journal
// must never lose. Once the daemon dies mid-burst, transport errors
// and non-202s are expected; they just end the burst.
func submitBurst(t *testing.T, addr string, body []byte, n int, idemKey string) []string {
	t.Helper()
	client := &http.Client{Timeout: 5 * time.Second}
	var acked []string
	for i := 0; i < n; i++ {
		req, err := http.NewRequest("POST", "http://"+addr+"/v1/jobs", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		if i == 0 && idemKey != "" {
			req.Header.Set("Idempotency-Key", idemKey)
		}
		resp, err := client.Do(req)
		if err != nil {
			return acked // the kill landed
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			continue
		}
		var v struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(data, &v); err == nil && v.ID != "" {
			acked = append(acked, v.ID)
		}
	}
	return acked
}

// journalDumpDoc mirrors statscheck's mlpartd-journal/1 output.
type journalDumpDoc struct {
	Schema    string `json:"schema"`
	Frames    int    `json:"frames"`
	TornBytes int64  `json:"torn_bytes"`
	Truncated bool   `json:"truncated"`
	Open      int    `json:"open"`
	Jobs      []struct {
		ID     string `json:"id"`
		Status string `json:"status"`
	} `json:"jobs"`
}

// dumpJournal runs statscheck -journal, which both validates the
// lifecycle invariants (exactly-once terminals included) and returns
// the folded per-job state.
func dumpJournal(t *testing.T, bins, path string) journalDumpDoc {
	t.Helper()
	out, err := exec.Command(filepath.Join(bins, "statscheck"), "-journal", path).Output()
	if err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			t.Fatalf("statscheck -journal: %v\n%s", err, ee.Stderr)
		}
		t.Fatalf("statscheck -journal: %v", err)
	}
	var d journalDumpDoc
	if err := json.Unmarshal(out, &d); err != nil {
		t.Fatalf("journal dump: %v\n%s", err, out)
	}
	if d.Schema != "mlpartd-journal/1" {
		t.Fatalf("journal dump schema %q", d.Schema)
	}
	return d
}

// TestCmdMlpartdCrashRecovery is the harness proper: burst, SIGKILL
// at a deterministic journal position, restart, audit.
func TestCmdMlpartdCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries and kills subprocesses")
	}
	bins := buildTools(t)
	hgr, err := os.ReadFile(filepath.Join("cmd", "mlpart", "testdata", "smoke.hgr"))
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(map[string]any{
		"hgr": string(hgr), "k": 2,
		"options": map[string]any{"seed": 1997, "starts": 2},
	})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	journal := filepath.Join(dir, "jobs.wal")

	// Phase 1: the victim. It SIGKILLs itself the instant the 5th
	// journal record is durable — mid-burst by construction: every job
	// is journaled as exactly two appends (accepted, then terminal), so
	// after an odd number of appends at least one job has its accepted
	// record and not its terminal one. Five appends journal at least
	// three jobs and close at most two. With the result cache off each
	// of them runs the pipeline between its two records.
	victim := startDaemon(t, bins, dir,
		"-journal", journal, "-crash-after-appends", "5", "-workers", "1", "-cache", "-1")
	acked := submitBurst(t, victim.addr, body, 8, "crash-key-0")
	if !victim.wait() {
		t.Fatalf("victim did not die by SIGKILL\nstderr: %s", victim.stderr)
	}
	if len(acked) == 0 {
		t.Fatal("burst produced no acknowledged jobs before the kill")
	}

	// Offline inspection of the post-crash journal: it must validate
	// (statscheck exits nonzero on any lifecycle violation) and carry
	// open debt.
	d1 := dumpJournal(t, bins, journal)
	if d1.Open == 0 {
		t.Errorf("post-crash journal has no open jobs: %+v", d1)
	}
	inJournal := make(map[string]bool)
	for _, j := range d1.Jobs {
		inJournal[j.ID] = true
	}
	for _, id := range acked {
		if !inJournal[id] {
			t.Errorf("acknowledged job %s missing from the journal (journal-before-acknowledge violated)", id)
		}
	}

	// Phase 2: the survivor. Replay must re-enqueue the open jobs and
	// keep every acknowledged id resolvable.
	svr := startDaemon(t, bins, dir, "-journal", journal, "-workers", "2")
	if !strings.Contains(svr.stderr.String(), "replayed") {
		t.Errorf("survivor stderr missing the replay line:\n%s", svr.stderr)
	}
	client := &http.Client{Timeout: 60 * time.Second}
	for _, id := range acked {
		resp, err := client.Get("http://" + svr.addr + "/v1/jobs/" + id + "?wait_ms=45000")
		if err != nil {
			t.Fatalf("GET recovered job %s: %v", id, err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("accepted job %s lost across the crash: %s: %s", id, resp.Status, data)
		}
		var v struct {
			Status    string `json:"status"`
			Recovered bool   `json:"recovered"`
		}
		if err := json.Unmarshal(data, &v); err != nil {
			t.Fatalf("job %s view: %v\n%s", id, err, data)
		}
		if v.Status != "completed" {
			t.Errorf("recovered job %s ended %q, want completed: %s", id, v.Status, data)
		}
		if !v.Recovered {
			t.Errorf("job %s not marked recovered after the crash", id)
		}
	}

	// The idempotency key from the killed process still deduplicates.
	req, _ := http.NewRequest("POST", "http://"+svr.addr+"/v1/jobs", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Idempotency-Key", "crash-key-0")
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	rdata, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Mlpartd-Idempotent") != "replay" {
		t.Errorf("idempotent replay across crash = %s (idempotent %q): %s",
			resp.Status, resp.Header.Get("X-Mlpartd-Idempotent"), rdata)
	}

	// Drain the survivor and validate its final ledger: recovered jobs
	// are accepted jobs, so the stats must balance across the restart.
	_ = svr.cmd.Process.Signal(syscall.SIGTERM)
	if killed := svr.wait(); killed {
		t.Fatal("survivor died by SIGKILL instead of draining")
	}
	stats := svr.stdout.Bytes()
	var rep struct {
		Recovered int64 `json:"recovered"`
		Accepted  int64 `json:"accepted"`
	}
	if err := json.Unmarshal(stats, &rep); err != nil {
		t.Fatalf("survivor stats: %v\n%s", err, stats)
	}
	if rep.Recovered == 0 || rep.Recovered > rep.Accepted {
		t.Errorf("survivor counters: recovered %d accepted %d", rep.Recovered, rep.Accepted)
	}
	check := exec.Command(filepath.Join(bins, "statscheck"))
	check.Stdin = bytes.NewReader(stats)
	if out, err := check.CombinedOutput(); err != nil {
		t.Fatalf("statscheck on survivor stats: %v\n%s", err, out)
	}

	// Final journal audit: every job closed exactly once — a double
	// completion would be a second terminal record, which statscheck
	// rejects — and no open debt remains.
	d2 := dumpJournal(t, bins, journal)
	if d2.Open != 0 {
		t.Errorf("journal still has %d open jobs after the drain: %+v", d2.Open, d2)
	}
	for _, id := range acked {
		found := false
		for _, j := range d2.Jobs {
			if j.ID == id {
				found = true
				if j.Status != "completed" {
					t.Errorf("journal closes %s as %q, want completed", id, j.Status)
				}
			}
		}
		if !found {
			t.Errorf("acknowledged job %s vanished from the compacted journal", id)
		}
	}
}

// TestCmdMlpartdCrashTornWrite kills the daemon under an injected
// torn write (-chaos journal.append:corrupt) — the dying-disk model —
// and verifies the restart truncates the torn tail instead of
// refusing to start.
func TestCmdMlpartdCrashTornWrite(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries and kills subprocesses")
	}
	bins := buildTools(t)
	hgr, err := os.ReadFile(filepath.Join("cmd", "mlpart", "testdata", "smoke.hgr"))
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(map[string]any{"hgr": string(hgr), "k": 2})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	journal := filepath.Join(dir, "jobs.wal")

	// The 4th append tears: half a frame reaches disk, the journal
	// poisons, later submissions shed with 503.
	victim := startDaemon(t, bins, dir,
		"-journal", journal, "-workers", "1",
		"-chaos", "journal.append:corrupt:4")
	submitBurst(t, victim.addr, body, 6, "")
	_ = victim.cmd.Process.Kill()
	_ = victim.cmd.Wait()

	d1 := dumpJournal(t, bins, journal)
	if !d1.Truncated || d1.TornBytes == 0 {
		t.Errorf("journal shows no torn tail after the injected torn write: %+v", d1)
	}

	svr := startDaemon(t, bins, dir, "-journal", journal, "-workers", "2")
	if !strings.Contains(svr.stderr.String(), "1 torn tails") {
		t.Errorf("survivor did not report the torn tail:\n%s", svr.stderr)
	}
	_ = svr.cmd.Process.Signal(syscall.SIGTERM)
	svr.wait()
	check := exec.Command(filepath.Join(bins, "statscheck"))
	check.Stdin = bytes.NewReader(svr.stdout.Bytes())
	if out, err := check.CombinedOutput(); err != nil {
		t.Fatalf("statscheck on survivor stats: %v\n%s", err, out)
	}
	// The compacted journal materialized the truncation.
	if d2 := dumpJournal(t, bins, journal); d2.Truncated || d2.TornBytes != 0 || d2.Open != 0 {
		t.Errorf("journal not clean after recovery: %+v", d2)
	}
}

// TestCmdStatscheckJournal exercises the -journal inspection mode
// end to end: a healthy journal dumps cleanly, and each lifecycle
// violation the server's recovery relies on rejecting is rejected.
func TestCmdStatscheckJournal(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bins := buildTools(t)
	dir := t.TempDir()

	write := func(t *testing.T, name string, recs ...journal.Record) string {
		t.Helper()
		path := filepath.Join(dir, name)
		w, err := journal.OpenAppend(path, journal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			if err := w.Append(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return path
	}
	acc := func(id string, seq int) journal.Record {
		return journal.Record{Type: journal.TypeAccepted, ID: id, Seq: seq, K: 2,
			ContentHash: "c", Fingerprint: "f", Request: []byte(`{"hgr":"x"}`)}
	}

	// The started record is what mlpartd journaled before it wrote
	// only accepted and terminal; old journals must still validate.
	good := write(t, "good.wal",
		acc("j-000000", 0),
		journal.Record{Type: journal.TypeStarted, ID: "j-000000", Seq: 0},
		journal.Record{Type: journal.TypeTerminal, ID: "j-000000", Seq: 0, Status: "completed"},
		acc("j-000001", 1),
	)
	d := dumpJournal(t, bins, good)
	if d.Frames != 4 || d.Open != 1 || len(d.Jobs) != 2 {
		t.Errorf("good journal dump: %+v", d)
	}
	if d.Jobs[0].Status != "completed" || d.Jobs[1].Status != "open" {
		t.Errorf("good journal statuses: %+v", d.Jobs)
	}

	for _, tc := range []struct {
		name string
		want string
		recs []journal.Record
	}{
		{"double-terminal", "second terminal", []journal.Record{
			acc("j-000000", 0),
			{Type: journal.TypeTerminal, ID: "j-000000", Seq: 0, Status: "completed"},
			{Type: journal.TypeTerminal, ID: "j-000000", Seq: 0, Status: "failed"},
		}},
		{"orphan-started", "precedes its accepted", []journal.Record{
			{Type: journal.TypeStarted, ID: "j-000009", Seq: 9},
		}},
		{"unknown-status", "unknown terminal status", []journal.Record{
			acc("j-000000", 0),
			{Type: journal.TypeTerminal, ID: "j-000000", Seq: 0, Status: "exploded"},
		}},
		{"duplicate-accepted", "duplicate accepted", []journal.Record{
			acc("j-000000", 0), acc("j-000000", 0),
		}},
	} {
		path := write(t, tc.name+".wal", tc.recs...)
		out, err := exec.Command(filepath.Join(bins, "statscheck"), "-journal", path).CombinedOutput()
		if err == nil {
			t.Errorf("%s: statscheck accepted an invalid journal:\n%s", tc.name, out)
		} else if !strings.Contains(string(out), tc.want) {
			t.Errorf("%s: rejection %q does not mention %q", tc.name, out, tc.want)
		}
	}

	// A torn tail is not a violation — offline inspection reports it.
	torn := write(t, "torn.wal", acc("j-000000", 0))
	f, err := os.OpenFile(torn, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if d := dumpJournal(t, bins, torn); !d.Truncated || d.TornBytes != 3 {
		t.Errorf("torn journal dump: %+v", d)
	}
}

// TestCmdMlpartdCrashSession runs the kill-and-restart harness on
// single-start jobs, which every executor runs on its reused
// workspace Session: jobs left open by a SIGKILL are recovered and
// re-run back-to-back on the survivor's one worker Session, and each
// must produce the bytes a fresh reference daemon computes.
func TestCmdMlpartdCrashSession(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries and kills subprocesses")
	}
	bins := buildTools(t)
	hgr, err := os.ReadFile(filepath.Join("cmd", "mlpart", "testdata", "smoke.hgr"))
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(map[string]any{
		"hgr": string(hgr), "k": 2,
		"options": map[string]any{"seed": 7, "starts": 1},
	})
	if err != nil {
		t.Fatal(err)
	}

	fetchResult := func(t *testing.T, addr, id string) ([]byte, string, bool) {
		t.Helper()
		client := &http.Client{Timeout: 60 * time.Second}
		resp, err := client.Get("http://" + addr + "/v1/jobs/" + id + "?wait_ms=45000")
		if err != nil {
			t.Fatalf("GET job %s: %v", id, err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("job %s: %s: %s", id, resp.Status, data)
		}
		var v struct {
			Status    string `json:"status"`
			Recovered bool   `json:"recovered"`
		}
		if err := json.Unmarshal(data, &v); err != nil {
			t.Fatalf("job %s view: %v\n%s", id, err, data)
		}
		resp, err = client.Get("http://" + addr + "/v1/jobs/" + id + "/result")
		if err != nil {
			t.Fatalf("GET result %s: %v", id, err)
		}
		res, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("result %s: %s: %s", id, resp.Status, res)
		}
		return res, v.Status, v.Recovered
	}

	// Reference: a fresh daemon computes the canonical result document
	// for this submission on its first job.
	refDir := t.TempDir()
	ref := startDaemon(t, bins, refDir, "-workers", "1", "-cache", "-1")
	refIDs := submitBurst(t, ref.addr, body, 1, "")
	if len(refIDs) != 1 {
		t.Fatalf("reference daemon acknowledged %d jobs, want 1", len(refIDs))
	}
	want, st, _ := fetchResult(t, ref.addr, refIDs[0])
	if st != "completed" {
		t.Fatalf("reference job ended %q, want completed", st)
	}
	_ = ref.cmd.Process.Signal(syscall.SIGTERM)
	ref.wait()

	// Phase 1: the victim dies on the 5th durable append. A job closes
	// in two appends (accepted, terminal), so after an odd number of
	// appends at least one journaled job is still open at the kill.
	dir := t.TempDir()
	wal := filepath.Join(dir, "jobs.wal")
	victim := startDaemon(t, bins, dir,
		"-journal", wal, "-crash-after-appends", "5", "-workers", "1", "-cache", "-1")
	acked := submitBurst(t, victim.addr, body, 8, "")
	if !victim.wait() {
		t.Fatalf("victim did not die by SIGKILL\nstderr: %s", victim.stderr)
	}
	if len(acked) == 0 {
		t.Fatal("burst produced no acknowledged jobs before the kill")
	}
	// The journal, not the acknowledgements, says which jobs are open:
	// the kill can land between a job's accepted record and its 202
	// reply, and five appends always leave one journaled job open.
	var open []string
	for _, j := range dumpJournal(t, bins, wal).Jobs {
		if j.Status == "open" {
			open = append(open, j.ID)
		}
	}

	// Phase 2: one survivor worker re-runs every open job on its
	// Session. Jobs closed before the kill are tombstones without a
	// result document, so only the re-run ones are compared.
	svr := startDaemon(t, bins, dir, "-journal", wal, "-workers", "1", "-cache", "-1")
	recovered := 0
	for _, id := range open {
		res, status, rec := fetchResult(t, svr.addr, id)
		if status != "completed" {
			t.Errorf("job %s ended %q after restart, want completed", id, status)
			continue
		}
		if !rec {
			t.Errorf("job %s not marked recovered", id)
		}
		recovered++
		if !bytes.Equal(res, want) {
			t.Errorf("job %s: recovered result differs from the reference result (%d vs %d bytes)",
				id, len(res), len(want))
		}
	}
	if recovered == 0 {
		t.Fatal("no job was audited after the restart")
	}

	// Drain; the final ledger must balance under statscheck.
	_ = svr.cmd.Process.Signal(syscall.SIGTERM)
	if killed := svr.wait(); killed {
		t.Fatal("survivor died by SIGKILL instead of draining")
	}
	check := exec.Command(filepath.Join(bins, "statscheck"))
	check.Stdin = bytes.NewReader(svr.stdout.Bytes())
	if out, err := check.CombinedOutput(); err != nil {
		t.Fatalf("statscheck on survivor stats: %v\n%s", err, out)
	}
}

// TestCmdStatscheckRecoveryCounters feeds statscheck service
// snapshots with crash-recovery counters: a balanced cross-restart
// ledger passes, a recovered count exceeding accepted fails, and so
// does any negative counter.
func TestCmdStatscheckRecoveryCounters(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bins := buildTools(t)
	snap := telemetry.ServiceReport{
		Schema:   telemetry.ServiceSchemaVersion,
		Accepted: 3, Completed: 3,
		Recovered: 2, ReplayedTerminal: 4, TornTailTruncated: 1,
		JournalAppendErrors: 1, IdempotentReplays: 2,
		CacheMisses: 3, QueueCap: 8, UptimeNS: 5,
	}
	run := func(t *testing.T, r telemetry.ServiceReport) ([]byte, error) {
		t.Helper()
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		cmd := exec.Command(filepath.Join(bins, "statscheck"))
		cmd.Stdin = bytes.NewReader(data)
		return cmd.CombinedOutput()
	}
	if out, err := run(t, snap); err != nil {
		t.Errorf("balanced cross-restart snapshot rejected: %v\n%s", err, out)
	}
	bad := snap
	bad.Recovered = 9
	if out, err := run(t, bad); err == nil {
		t.Errorf("recovered > accepted snapshot accepted:\n%s", out)
	} else if !strings.Contains(string(out), "recovered") {
		t.Errorf("unexpected rejection: %s", out)
	}
	neg := snap
	neg.ReplayedTerminal = -1
	if out, err := run(t, neg); err == nil {
		t.Errorf("negative replayed_terminal accepted:\n%s", out)
	}
	negDropped := snap
	negDropped.EventsDropped = -1
	if out, err := run(t, negDropped); err == nil {
		t.Errorf("negative events_dropped accepted:\n%s", out)
	}
}
