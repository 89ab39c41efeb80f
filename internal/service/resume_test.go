package service

import (
	"bytes"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"checkpointsim/internal/exp"
	"checkpointsim/internal/network"
	"checkpointsim/internal/sim"
)

// resumeScenario is the scenario the kill-and-resume tests revolve around:
// large enough to take several snapshots at the test cadence.
var resumeScenario = exp.Scenario{Workload: "cg", Ranks: 16, Protocol: "coordinated",
	FailureLaw: "exp", Storage: "pfs", Noise: "none", Seed: 11}

const resumeCadence = 2000

// runScenarioSync submits sc synchronously and returns the result bytes.
func runScenarioSync(t *testing.T, url string, sc exp.Scenario) []byte {
	t.Helper()
	resp := postJSON(t, url+"/api/v1/run", scenarioBody(sc))
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run: status %d: %s", resp.StatusCode, body)
	}
	return body
}

// midRunBlob produces the exact on-disk state a sweepd killed mid-run
// leaves behind: the latest snapshot persisted before the kill. It runs the
// scenario in streaming-snapshot mode and returns a blob from the middle of
// the run.
func midRunBlob(t *testing.T, sc exp.Scenario) []byte {
	t.Helper()
	var blobs [][]byte
	o := exp.DefaultOptions()
	o.SnapshotEvery = resumeCadence
	o.OnSnapshot = func(s sim.Snapshot) {
		blobs = append(blobs, append([]byte(nil), s.Blob...))
	}
	if _, err := sc.Run(o); err != nil {
		t.Fatal(err)
	}
	if len(blobs) == 0 {
		t.Fatalf("scenario %s took no snapshots at cadence %d", sc.ID(), resumeCadence)
	}
	return blobs[len(blobs)/2]
}

// TestScenarioSnapshotLifecycle: a server with a snapshot dir persists
// snapshots during a scenario run, produces bytes identical to a server
// without one, and deletes the blob once the job completes.
func TestScenarioSnapshotLifecycle(t *testing.T) {
	coldSrv, coldTS := newTestServer(t, Config{})
	cold := runScenarioSync(t, coldTS.URL, resumeScenario)

	dir := t.TempDir()
	snapSrv, snapTS := newTestServer(t, Config{SnapshotDir: dir, SnapshotEvery: resumeCadence})
	got := runScenarioSync(t, snapTS.URL, resumeScenario)
	if !bytes.Equal(got, cold) {
		t.Fatalf("snapshotting changed the result:\n--- snapshotting ---\n%s\n--- cold ---\n%s", got, cold)
	}
	if n := snapSrv.SnapshotsTaken(); n == 0 {
		t.Error("no snapshots persisted during the run")
	}
	if n := snapSrv.JobResumes(); n != 0 {
		t.Errorf("fresh run counted %d resumes", n)
	}
	if n := snapSrv.ColdRetries(); n != 0 {
		t.Errorf("fresh run counted %d cold retries", n)
	}
	left, _ := filepath.Glob(filepath.Join(dir, "*"))
	if len(left) != 0 {
		t.Errorf("snapshot dir not cleaned up after success: %v", left)
	}
	_ = coldSrv
}

// TestKillAndResumeScenario is the crash–resume test at the service
// boundary: a snapshot persisted mid-run by a killed server is picked up by
// a restarted server, which completes the job from the boundary (the resume
// counter proves the restore carried the run — any restore failure would
// have surfaced as a cold retry) and serves bytes identical to a cold run.
func TestKillAndResumeScenario(t *testing.T) {
	sc := resumeScenario
	coldSrv, coldTS := newTestServer(t, Config{})
	cold := runScenarioSync(t, coldTS.URL, sc)
	coldEvents := coldSrv.SimEvents()
	if coldEvents == 0 {
		t.Fatal("cold run executed no events")
	}

	// The "kill": plant the mid-run blob under the job's cache key, exactly
	// where the previous server's atomic writes left it.
	dir := t.TempDir()
	key := ScenarioCacheKey("test", sc, network.DefaultParams())
	if err := os.WriteFile(filepath.Join(dir, key+".ckpt"), midRunBlob(t, sc), 0o644); err != nil {
		t.Fatal(err)
	}

	srv, ts := newTestServer(t, Config{SnapshotDir: dir, SnapshotEvery: resumeCadence})
	got := runScenarioSync(t, ts.URL, sc)
	if !bytes.Equal(got, cold) {
		t.Fatalf("resumed result diverged from cold run:\n--- resumed ---\n%s\n--- cold ---\n%s", got, cold)
	}
	if n := srv.JobResumes(); n != 1 {
		t.Errorf("JobResumes = %d, want 1", n)
	}
	if n := srv.ColdRetries(); n != 0 {
		t.Errorf("ColdRetries = %d, want 0 (the snapshot should have restored)", n)
	}
	// The resumed engine restores its event counter from the snapshot, so
	// the job reports the identical total — part of the byte-identity
	// contract (a smaller count would leak the interruption into results).
	if ev := srv.SimEvents(); ev != coldEvents {
		t.Errorf("resumed run reported %d events, cold run %d — restored counters must match", ev, coldEvents)
	}
	if _, err := os.Stat(filepath.Join(dir, key+".ckpt")); !os.IsNotExist(err) {
		t.Errorf("snapshot blob not deleted after the resumed job completed (err=%v)", err)
	}
}

// TestResumeCorruptSnapshotFallsBackCold: a truncated blob (a crash before
// any atomic rename would never produce one, but disks rot) must not fail
// the job — the server discards it and runs cold, still byte-identical.
func TestResumeCorruptSnapshotFallsBackCold(t *testing.T) {
	sc := resumeScenario
	_, coldTS := newTestServer(t, Config{})
	cold := runScenarioSync(t, coldTS.URL, sc)

	blob := midRunBlob(t, sc)
	dir := t.TempDir()
	key := ScenarioCacheKey("test", sc, network.DefaultParams())
	if err := os.WriteFile(filepath.Join(dir, key+".ckpt"), blob[:len(blob)/3], 0o644); err != nil {
		t.Fatal(err)
	}

	srv, ts := newTestServer(t, Config{SnapshotDir: dir, SnapshotEvery: resumeCadence})
	got := runScenarioSync(t, ts.URL, sc)
	if !bytes.Equal(got, cold) {
		t.Fatalf("cold-fallback result diverged:\n--- fallback ---\n%s\n--- cold ---\n%s", got, cold)
	}
	if n := srv.JobResumes(); n != 1 {
		t.Errorf("JobResumes = %d, want 1 (the resume was attempted)", n)
	}
	if n := srv.ColdRetries(); n != 1 {
		t.Errorf("ColdRetries = %d, want 1", n)
	}
	if _, err := os.Stat(filepath.Join(dir, key+".ckpt")); !os.IsNotExist(err) {
		t.Errorf("corrupt blob not cleaned up (err=%v)", err)
	}
}

// TestColdRetriesCountExactlyOncePerFallback: the cold_retries_total
// counter is per-fallback accounting, not a boolean — two jobs that each
// discard a corrupt snapshot must advance it to exactly 2, once per failed
// restore, and the Prometheus endpoint must report the same figure.
func TestColdRetriesCountExactlyOncePerFallback(t *testing.T) {
	scA := resumeScenario
	scB := resumeScenario
	scB.Seed = scA.Seed + 1 // distinct cache key, so the second job really runs

	dir := t.TempDir()
	srv, ts := newTestServer(t, Config{SnapshotDir: dir, SnapshotEvery: resumeCadence})
	for i, sc := range []exp.Scenario{scA, scB} {
		blob := midRunBlob(t, sc)
		key := ScenarioCacheKey("test", sc, network.DefaultParams())
		if err := os.WriteFile(filepath.Join(dir, key+".ckpt"), blob[:len(blob)/3], 0o644); err != nil {
			t.Fatal(err)
		}
		runScenarioSync(t, ts.URL, sc)
		if n := srv.ColdRetries(); n != int64(i+1) {
			t.Fatalf("after fallback %d: ColdRetries = %d, want %d", i+1, n, i+1)
		}
	}
	if n := srv.JobResumes(); n != 2 {
		t.Errorf("JobResumes = %d, want 2 (both restores were attempted)", n)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics := string(readBody(t, resp))
	if want := "sweepd_job_cold_retries_total 2"; !strings.Contains(metrics, want) {
		t.Errorf("metrics missing %q:\n%s", want, metrics)
	}
}

// TestExperimentJobsNotSnapshotted: experiment sweeps bypass snapshot
// persistence entirely — the snapshot dir stays empty and no resume is
// counted.
func TestExperimentJobsNotSnapshotted(t *testing.T) {
	dir := t.TempDir()
	srv, ts := newTestServer(t, Config{SnapshotDir: dir, SnapshotEvery: 100})
	resp := postJSON(t, ts.URL+"/api/v1/run", `{"exp":"E1","quick":true}`)
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run: status %d: %s", resp.StatusCode, body)
	}
	if n := srv.SnapshotsTaken(); n != 0 {
		t.Errorf("experiment sweep persisted %d snapshots", n)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*"))
	if len(files) != 0 {
		t.Errorf("experiment sweep wrote files to the snapshot dir: %v", files)
	}
}

// A panic inside a scenario run fails only its own job: the request gets
// a 500 naming the panic, and the single worker survives to serve the
// next request — here a resubmission of the same scenario, which the
// cache computes afresh because the panicking leader released its key.
func TestPanickingRunFailsOnlyItsJob(t *testing.T) {
	var panicked atomic.Bool
	_, ts := newTestServer(t, Config{Workers: 1, SnapshotEvery: resumeCadence,
		PublishSnapshot: func(string, []byte) {
			if panicked.CompareAndSwap(false, true) {
				panic("publish failed")
			}
		}})

	resp := postJSON(t, ts.URL+"/api/v1/run", scenarioBody(resumeScenario))
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking run: status %d, want 500: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "failed") || !strings.Contains(string(body), "publish failed") {
		t.Errorf("500 body %s does not report the failed job's panic", body)
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if body := readBody(t, resp); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after panic: %d %s", resp.StatusCode, body)
	}

	got := runScenarioSync(t, ts.URL, resumeScenario)
	tables, err := resumeScenario.Run(exp.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	want, err := EncodeScenarioResult(resumeScenario, tables)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("follow-up run after the panic differs from a local run")
	}
}
