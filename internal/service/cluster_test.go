package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"checkpointsim/internal/cache"
	"checkpointsim/internal/exp"
	"checkpointsim/internal/network"
)

// testCluster is a coordinator fronting n real workers, all in-process on
// httptest servers — the whole distributed topology without a single
// exec. Worker i is shard "wi". Workers publish scenario snapshots to the
// coordinator over real HTTP, exactly as cmd/sweepd -worker does.
type testCluster struct {
	t       *testing.T
	workers []*clusterWorker
	coord   *Coordinator
	coordTS *httptest.Server
}

type clusterWorker struct {
	name   string
	srv    *Server
	ts     *httptest.Server
	killed bool
}

// newTestCluster builds the cluster. workerCfg seeds every worker's
// config (Version, snapshot cadence, and the publish hook are wired here;
// a PublishSnapshot in workerCfg runs before each publish);
// coordCfg seeds the coordinator's (Workers and Version are wired here).
func newTestCluster(t *testing.T, n int, workerCfg Config, coordCfg CoordinatorConfig) *testCluster {
	t.Helper()
	c := &testCluster{t: t}

	// Workers exist before the coordinator, so the publish hook resolves
	// the coordinator URL late — same shape as a real worker flagging
	// -coordinator-url before the coordinator finishes booting.
	var coordURL atomic.Value
	hook := workerCfg.PublishSnapshot
	publish := func(key string, blob []byte) {
		if hook != nil {
			hook(key, blob)
		}
		u, _ := coordURL.Load().(string)
		if u == "" {
			return
		}
		resp, err := http.Post(u+"/api/v1/snapshots/"+key, "application/octet-stream", bytes.NewReader(blob))
		if err == nil {
			resp.Body.Close()
		}
	}

	urls := make([]string, n)
	for i := 0; i < n; i++ {
		cfg := workerCfg
		cfg.Version = "test"
		if cfg.Timeout == 0 {
			cfg.Timeout = time.Minute
		}
		cfg.PublishSnapshot = publish
		srv := New(cfg)
		ts := httptest.NewServer(srv.Handler())
		w := &clusterWorker{name: "w" + string(rune('0'+i)), srv: srv, ts: ts}
		c.workers = append(c.workers, w)
		urls[i] = ts.URL
	}

	coordCfg.Workers = urls
	coordCfg.Version = "test"
	if coordCfg.HealthEvery == 0 {
		coordCfg.HealthEvery = 100 * time.Millisecond
	}
	if coordCfg.RetryBase == 0 {
		coordCfg.RetryBase = 50 * time.Millisecond
	}
	coord, err := NewCoordinator(coordCfg)
	if err != nil {
		t.Fatal(err)
	}
	c.coord = coord
	c.coordTS = httptest.NewServer(coord.Handler())
	coordURL.Store(c.coordTS.URL)

	t.Cleanup(func() {
		c.coordTS.Close()
		coord.Close()
		for _, w := range c.workers {
			if !w.killed {
				w.ts.CloseClientConnections()
				w.ts.Close()
				w.srv.Close()
			}
		}
	})
	return c
}

// kill takes worker i down hard: live connections severed mid-flight
// (the coordinator's dispatch sees a transport error, like a SIGKILL'd
// process), listener closed, jobs cancelled.
func (c *testCluster) kill(i int) {
	w := c.workers[i]
	w.killed = true
	w.ts.CloseClientConnections()
	w.srv.Close() // cancel running jobs so handlers return and Close can finish
	w.ts.Close()
}

// url is the coordinator's base URL — the only address clients know.
func (c *testCluster) url() string { return c.coordTS.URL }

// primaryFor computes which worker shard the cluster routes sc to.
func (c *testCluster) primaryFor(sc exp.Scenario) int {
	names := make([]string, len(c.workers))
	for i, w := range c.workers {
		names[i] = w.name
	}
	key := ScenarioCacheKey("test", sc, network.DefaultParams())
	name := cache.PickNode(key, names)
	for i, w := range c.workers {
		if w.name == name {
			return i
		}
	}
	c.t.Fatalf("no worker named %q", name)
	return -1
}

// localScenarioBytes is the single-process reference: the exact bytes a
// sweepd would compute and cache for sc.
func localScenarioBytes(t *testing.T, sc exp.Scenario) []byte {
	t.Helper()
	tables, err := sc.Run(exp.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	b, err := EncodeScenarioResult(sc, tables)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// chaosScenarios is the mini-campaign the cluster tests sweep: seed
// variants of the resume scenario, so points spread across shards and
// every one is long enough to snapshot mid-run.
func chaosScenarios(n int) []exp.Scenario {
	out := make([]exp.Scenario, n)
	for i := range out {
		sc := resumeScenario
		sc.Seed = resumeScenario.Seed + uint64(i)
		out[i] = sc
	}
	return out
}

// TestClusterCampaignByteIdentity: a healthy cluster serves every point
// of a campaign byte-identical to a single-process run, routes each key
// to its rendezvous shard (sticky — the repeat is a cache hit on the
// same worker), and never touches the DLQ.
func TestClusterCampaignByteIdentity(t *testing.T) {
	c := newTestCluster(t, 2, Config{SnapshotEvery: resumeCadence}, CoordinatorConfig{})
	for _, sc := range chaosScenarios(3) {
		ref := localScenarioBytes(t, sc)
		wantWorker := c.workers[c.primaryFor(sc)].name

		resp := postJSON(t, c.url()+"/api/v1/run", scenarioBody(sc))
		body := readBody(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", sc.ID(), resp.StatusCode, body)
		}
		if got := resp.Header.Get("X-Sweepd-Worker"); got != wantWorker {
			t.Errorf("%s routed to %s, rendezvous hash says %s", sc.ID(), got, wantWorker)
		}
		if src := resp.Header.Get("X-Sweepd-Source"); src != "computed" {
			t.Errorf("%s first run source = %q, want computed", sc.ID(), src)
		}
		if !bytes.Equal(body, ref) {
			t.Fatalf("%s: cluster bytes differ from local run:\n--- cluster ---\n%s\n--- local ---\n%s", sc.ID(), body, ref)
		}

		resp = postJSON(t, c.url()+"/api/v1/run", scenarioBody(sc))
		again := readBody(t, resp)
		if src := resp.Header.Get("X-Sweepd-Source"); src != "hit" {
			t.Errorf("%s repeat source = %q, want hit (sticky routing missed the warm shard)", sc.ID(), src)
		}
		if got := resp.Header.Get("X-Sweepd-Worker"); got != wantWorker {
			t.Errorf("%s repeat routed to %s, want %s", sc.ID(), got, wantWorker)
		}
		if !bytes.Equal(again, ref) {
			t.Fatalf("%s: cache-hit bytes differ from local run", sc.ID())
		}
	}
	if entries := clusterDLQ(t, c.url()); len(entries) != 0 {
		t.Errorf("healthy campaign left DLQ entries: %+v", entries)
	}
}

// TestClusterKillWorkerMidCampaign is the chaos test the PR exists for:
// kill a worker while it is mid-scenario, and the point must still
// complete — dead-lettered by the coordinator, re-dispatched to the
// survivor with the dead peer's last published snapshot, resumed from
// that boundary, and served byte-identical to a single-process run. The
// DLQ drains back to zero, and the rest of the campaign completes on the
// survivor.
func TestClusterKillWorkerMidCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second chaos test")
	}
	// Snapshot often, so the victim publishes a blob well before finishing
	// and the kill lands mid-run.
	c := newTestCluster(t, 2,
		Config{SnapshotEvery: 500},
		CoordinatorConfig{RetryBase: 50 * time.Millisecond, MaxAttempts: 8})

	scenarios := chaosScenarios(3)
	target := scenarios[0]
	victim := c.primaryFor(target)
	survivor := 1 - victim
	ref := localScenarioBytes(t, target)

	// Launch the target point through the coordinator.
	type runOut struct {
		code   int
		source string
		body   []byte
	}
	done := make(chan runOut, 1)
	go func() {
		resp, err := http.Post(c.url()+"/api/v1/run", "application/json",
			strings.NewReader(scenarioBody(target)))
		if err != nil {
			done <- runOut{code: -1, body: []byte(err.Error())}
			return
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		done <- runOut{code: resp.StatusCode, source: resp.Header.Get("X-Sweepd-Source"), body: buf.Bytes()}
	}()

	// Wait until the victim has published at least one mid-run snapshot to
	// the coordinator, then pull the trigger.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if !strings.Contains(scrape(t, c.url()+"/metrics"), "sweepd_coord_snapshots_stored_total 0\n") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("victim never published a snapshot blob")
		}
		time.Sleep(2 * time.Millisecond)
	}
	c.kill(victim)

	out := <-done
	if out.code != http.StatusOK {
		t.Fatalf("killed point did not recover: status %d: %s", out.code, out.body)
	}
	if !bytes.Equal(out.body, ref) {
		t.Fatalf("recovered bytes differ from single-process run:\n--- recovered ---\n%s\n--- local ---\n%s", out.body, ref)
	}
	if n := c.workers[survivor].srv.jobResumes.Value(); n != 1 {
		t.Errorf("survivor JobResumes = %d, want 1 (should have resumed from the shipped blob)", n)
	}
	if n := c.workers[survivor].srv.coldRetries.Value(); n != 0 {
		t.Errorf("survivor ColdRetries = %d, want 0 (the shipped blob should have restored)", n)
	}

	// Recovery accounting: the point passed through the DLQ exactly once,
	// the re-dispatch carried the blob, and the queue drained to zero.
	if entries := clusterDLQ(t, c.url()); len(entries) != 0 {
		t.Errorf("DLQ did not drain after recovery: %+v", entries)
	}
	metrics := scrape(t, c.url()+"/metrics")
	for _, want := range []string{
		"sweepd_coord_dlq_entered_total 1",
		"sweepd_coord_dlq_recovered_total 1",
		"sweepd_coord_dlq_parked_total 0",
		"sweepd_coord_resume_shipped_total 1",
		"sweepd_coord_workers_alive 1",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("coordinator metrics missing %q", want)
		}
	}

	// The rest of the campaign completes on the survivor, byte-identically
	// — including points whose rendezvous primary was the dead worker.
	for _, sc := range scenarios[1:] {
		ref := localScenarioBytes(t, sc)
		resp := postJSON(t, c.url()+"/api/v1/run", scenarioBody(sc))
		body := readBody(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s after kill: status %d: %s", sc.ID(), resp.StatusCode, body)
		}
		if got := resp.Header.Get("X-Sweepd-Worker"); got != c.workers[survivor].name {
			t.Errorf("%s after kill routed to %q, want survivor %s", sc.ID(), got, c.workers[survivor].name)
		}
		if !bytes.Equal(body, ref) {
			t.Fatalf("%s after kill: bytes differ from local run", sc.ID())
		}
	}
}

// TestClusterPanickingRunNotRetried: a run that panics panics on every
// worker — it is the request's fault, not the shard's — so the coordinator
// relays the worker's final 500 after one dispatch instead of
// dead-lettering the point and re-running the panic on every survivor.
func TestClusterPanickingRunNotRetried(t *testing.T) {
	var runs atomic.Int64
	c := newTestCluster(t, 2, Config{SnapshotEvery: resumeCadence,
		PublishSnapshot: func(string, []byte) {
			runs.Add(1)
			panic("publish failed")
		}}, CoordinatorConfig{})

	resp := postJSON(t, c.url()+"/api/v1/run", scenarioBody(resumeScenario))
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking run: status %d, want 500: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "publish failed") {
		t.Errorf("relayed body %s does not report the panic", body)
	}
	if got := resp.Header.Get(retryableHeader); got != "false" {
		t.Errorf("%s = %q, want false", retryableHeader, got)
	}
	if n := runs.Load(); n != 1 {
		t.Errorf("panicking run dispatched %d times, want 1", n)
	}
	if entries := clusterDLQ(t, c.url()); len(entries) != 0 {
		t.Errorf("panicking run left DLQ entries: %+v", entries)
	}
	if metrics := scrape(t, c.url()+"/metrics"); !strings.Contains(metrics, "sweepd_coord_dlq_entered_total 0") {
		t.Error("panicking run entered the dead-letter queue")
	}
}

// TestClusterHugeTimeoutStaysPut: a timeout_sec too large for a
// time.Duration runs to completion on its shard instead of failing there
// and walking the cluster through the dead-letter queue.
func TestClusterHugeTimeoutStaysPut(t *testing.T) {
	c := newTestCluster(t, 2, Config{}, CoordinatorConfig{MaxAttempts: 3})
	resp := postJSON(t, c.url()+"/api/v1/run", `{"exp":"E1","quick":true,"timeout_sec":1e300}`)
	if body := readBody(t, resp); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200: %s", resp.StatusCode, body)
	}
	if metrics := scrape(t, c.url()+"/metrics"); !strings.Contains(metrics, "sweepd_coord_dlq_entered_total 0") {
		t.Error("a huge timeout_sec entered the dead-letter queue")
	}
}

// clusterDLQ fetches the coordinator's dead-letter listing.
func clusterDLQ(t *testing.T, base string) []DLQEntry {
	t.Helper()
	resp, err := http.Get(base + "/api/v1/dlq")
	if err != nil {
		t.Fatal(err)
	}
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("dlq list: status %d: %s", resp.StatusCode, body)
	}
	var entries []DLQEntry
	if err := json.Unmarshal(body, &entries); err != nil {
		t.Fatal(err)
	}
	return entries
}

// scrape fetches a metrics endpoint as text.
func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: status %d", resp.StatusCode)
	}
	return string(body)
}
