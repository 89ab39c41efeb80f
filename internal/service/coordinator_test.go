package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"checkpointsim/internal/cache"
	"checkpointsim/internal/exp"
)

// fakeWorker mounts just enough of the worker API for coordinator unit
// tests: a canned /healthz and a scripted /api/v1/run. Real workers are
// exercised by the cluster tests; fakes let these tests pin queue depths
// and failure sequences that would be racy to stage on live servers.
func fakeWorker(t *testing.T, h Health, run http.HandlerFunc) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		code := http.StatusOK
		if h.Status != "ok" {
			code = http.StatusServiceUnavailable
		}
		writeJSON(w, code, h)
	})
	if run != nil {
		mux.HandleFunc("POST /api/v1/run", run)
	}
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

func newTestCoordinator(t *testing.T, cfg CoordinatorConfig) (*Coordinator, *httptest.Server) {
	t.Helper()
	cfg.Version = "test"
	if cfg.HealthEvery == 0 {
		cfg.HealthEvery = 50 * time.Millisecond
	}
	c, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(func() {
		ts.Close()
		c.Close()
	})
	return c, ts
}

// okHealth is a live idle worker's health report.
func okHealth(depth, workers int, mean float64) Health {
	return Health{Status: "ok", QueueDepth: depth, QueueCapacity: 64,
		Workers: workers, MeanJobSeconds: mean}
}

// TestCoordinatorRetryAfterCrossShard: a worker's 429 passes through, but
// Retry-After is recomputed from cluster-wide depth — total backlog over
// total workers at the slowest shard's mean latency, ceil'd to integer
// seconds and clamped to [1, 60] end to end.
func TestCoordinatorRetryAfterCrossShard(t *testing.T) {
	refuse := func(w http.ResponseWriter, r *http.Request) {
		// The worker's own (single-shard) estimate: deliberately short.
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, errorBody{Error: "job queue full"})
	}
	cases := []struct {
		name   string
		a, b   Health
		want   string
		hidden bool // worker b dead: excluded from the estimate
	}{
		// (10+10)/(2+2) backlog + 1 slots, × max(2,3)s mean → ceil(18) = 18.
		{"aggregates across shards", okHealth(10, 2, 2.0), okHealth(10, 2, 3.0), "18", false},
		// Huge backlog clamps to the 60 s ceiling.
		{"clamps to 60", okHealth(500, 1, 30.0), okHealth(500, 1, 30.0), "60", false},
		// No latency estimate yet → the 1 s floor.
		{"floors at 1", okHealth(10, 2, 0), okHealth(10, 2, 0), "1", false},
		// Fractional seconds round up to the next whole second.
		{"integer seconds", okHealth(1, 2, 0.9), okHealth(0, 2, 0.1), "2", false},
		// A dead shard's stale depth must not inflate the estimate.
		{"dead shard excluded", okHealth(3, 2, 1.0), Health{Status: "draining"}, "3", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wa := fakeWorker(t, tc.a, refuse)
			wb := fakeWorker(t, tc.b, refuse)
			_, ts := newTestCoordinator(t, CoordinatorConfig{Workers: []string{wa.URL, wb.URL}})

			// Find a request routed to a live shard (with one shard down,
			// any key routes to the survivor).
			resp := postJSON(t, ts.URL+"/api/v1/run", `{"exp":"E1","quick":true}`)
			body := readBody(t, resp)
			if resp.StatusCode != http.StatusTooManyRequests {
				t.Fatalf("status %d: %s", resp.StatusCode, body)
			}
			got := resp.Header.Get("Retry-After")
			if got != tc.want {
				t.Errorf("Retry-After = %q, want %q", got, tc.want)
			}
			if _, err := time.ParseDuration(got + "s"); err != nil {
				t.Errorf("Retry-After %q is not integer seconds", got)
			}
			_ = tc.hidden
		})
	}
}

// TestCoordinatorDLQParkAndRequeue: a point that fails every retry parks
// with its attempt history; requeueing it after the worker heals drives
// it to completion and drains the queue. Unknown or non-parked ids 404.
func TestCoordinatorDLQParkAndRequeue(t *testing.T) {
	var healed atomic.Bool
	var attempts atomic.Int64
	worker := fakeWorker(t, okHealth(0, 2, 0), func(w http.ResponseWriter, r *http.Request) {
		attempts.Add(1)
		if !healed.Load() {
			writeJSON(w, http.StatusInternalServerError, errorBody{Error: "synthetic worker failure"})
			return
		}
		w.Header().Set("X-Sweepd-Source", "computed")
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"healed":true}`))
	})
	c, ts := newTestCoordinator(t, CoordinatorConfig{
		Workers:     []string{worker.URL},
		RetryBase:   5 * time.Millisecond,
		MaxAttempts: 2,
	})

	resp := postJSON(t, ts.URL+"/api/v1/run", `{"exp":"E1","quick":true}`)
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("parked point: status %d, want 502: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "parked in dead-letter queue") {
		t.Errorf("502 body does not name the DLQ: %s", body)
	}
	// 1 direct dispatch + MaxAttempts retries, all failed.
	if n := attempts.Load(); n != 3 {
		t.Errorf("worker saw %d attempts, want 3 (1 direct + 2 retries)", n)
	}

	entries := clusterDLQ(t, ts.URL)
	if len(entries) != 1 {
		t.Fatalf("DLQ entries = %d, want 1: %+v", len(entries), entries)
	}
	e := entries[0]
	if e.State != DLQParked {
		t.Errorf("entry state = %q, want parked", e.State)
	}
	if e.Attempts != 2 || e.MaxAttempts != 2 {
		t.Errorf("entry attempts = %d/%d, want 2/2", e.Attempts, e.MaxAttempts)
	}
	if !strings.Contains(e.LastError, "synthetic worker failure") {
		t.Errorf("entry last_error = %q, want the worker's error", e.LastError)
	}
	if e.Spec != "E1" || e.Key == "" {
		t.Errorf("entry spec/key = %q/%q, want E1/<key>", e.Spec, e.Key)
	}

	// While parked the gauges show it.
	metrics := scrape(t, ts.URL+"/metrics")
	for _, want := range []string{
		"sweepd_coord_dlq_parked 1",
		"sweepd_coord_dlq_retrying 0",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("parked-state metrics missing %q", want)
		}
	}

	// Requeue against a healed worker: 202, then the queue drains.
	healed.Store(true)
	resp = postJSON(t, ts.URL+"/api/v1/dlq/"+e.ID+"/requeue", "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("requeue: status %d: %s", resp.StatusCode, readBody(t, resp))
	}
	readBody(t, resp)
	deadline := time.Now().Add(10 * time.Second)
	for len(clusterDLQ(t, ts.URL)) != 0 {
		if time.Now().After(deadline) {
			t.Fatal("DLQ did not drain after requeue")
		}
		time.Sleep(5 * time.Millisecond)
	}

	metrics = scrape(t, ts.URL+"/metrics")
	for _, want := range []string{
		"sweepd_coord_dlq_entered_total 1",
		"sweepd_coord_dlq_parked_total 1",
		"sweepd_coord_dlq_requeued_total 1",
		"sweepd_coord_dlq_recovered_total 1",
		"sweepd_coord_dlq_retrying 0",
		"sweepd_coord_dlq_parked 0",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// Requeue of a resolved (gone) or unknown id is a 404.
	for _, id := range []string{e.ID, "dlq999"} {
		resp := postJSON(t, ts.URL+"/api/v1/dlq/"+id+"/requeue", "")
		readBody(t, resp)
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("requeue %q: status %d, want 404", id, resp.StatusCode)
		}
	}
	_ = c
}

// TestCoordinatorNoLiveWorkers: with every shard down the coordinator
// reports degraded health and parks submissions instead of hanging.
func TestCoordinatorNoLiveWorkers(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close() // nothing listens: every probe is a transport error
	_, ts := newTestCoordinator(t, CoordinatorConfig{
		Workers:     []string{dead.URL},
		RetryBase:   time.Millisecond,
		MaxAttempts: 2,
	})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h CoordHealth
	if err := json.Unmarshal(readBody(t, resp), &h); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable || h.Status != "degraded" {
		t.Errorf("healthz = %d/%q, want 503/degraded", resp.StatusCode, h.Status)
	}
	if h.WorkersAlive != 0 || h.WorkersTotal != 1 {
		t.Errorf("workers = %d/%d, want 0/1", h.WorkersAlive, h.WorkersTotal)
	}

	resp = postJSON(t, ts.URL+"/api/v1/run", `{"exp":"E1","quick":true}`)
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status %d, want 502 (parked): %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "no live workers") {
		t.Errorf("parked error does not say no live workers: %s", body)
	}
}

// TestCoordinatorValidatesLocally: garbage requests are rejected by the
// coordinator itself with the worker's status codes — no shard sees them.
func TestCoordinatorValidatesLocally(t *testing.T) {
	var hits atomic.Int64
	worker := fakeWorker(t, okHealth(0, 2, 0), func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Write([]byte("{}"))
	})
	_, ts := newTestCoordinator(t, CoordinatorConfig{Workers: []string{worker.URL}})

	cases := []struct {
		body string
		want int
	}{
		{`{"exp":"E1","unknown_knob":1}`, http.StatusBadRequest},
		{`{"exp":"E999"}`, http.StatusNotFound},
		{`{}`, http.StatusBadRequest},
		{`{"exp":"E1","resume_b64":"AAAA"}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp := postJSON(t, ts.URL+"/api/v1/run", tc.body)
		readBody(t, resp)
		if resp.StatusCode != tc.want {
			t.Errorf("body %s: status %d, want %d", tc.body, resp.StatusCode, tc.want)
		}
	}
	if n := hits.Load(); n != 0 {
		t.Errorf("workers saw %d dispatches of invalid requests", n)
	}
}

// putBlob publishes blob under key to the coordinator's snapshot route.
func putBlob(t *testing.T, c *Coordinator, key string, blob []byte) int {
	t.Helper()
	rec := httptest.NewRecorder()
	c.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/snapshots/"+key,
		bytes.NewReader(blob)))
	return rec.Code
}

// TestCoordinatorSnapshotBlobs: a published blob is stored under its key,
// latest-wins, and an empty blob is refused.
func TestCoordinatorSnapshotBlobs(t *testing.T) {
	worker := fakeWorker(t, okHealth(0, 2, 0), nil)
	c, _ := newTestCoordinator(t, CoordinatorConfig{Workers: []string{worker.URL}})

	if code := putBlob(t, c, "k1", []byte("blob-one")); code != http.StatusNoContent {
		t.Fatalf("put: status %d", code)
	}
	if code := putBlob(t, c, "k1", []byte("blob-one-v2")); code != http.StatusNoContent {
		t.Fatalf("overwrite: status %d", code)
	}
	if blob, ok := c.blobs.Get("k1"); !ok || string(blob) != "blob-one-v2" {
		t.Errorf("latest-wins violated: got %q, resident %v", blob, ok)
	}
	if code := putBlob(t, c, "k2", nil); code != http.StatusBadRequest {
		t.Errorf("empty blob: status %d, want 400", code)
	}
	if _, ok := c.blobs.Get("k2"); ok {
		t.Error("empty blob stored")
	}
}

// TestCoordinatorBlobMemoryBound: two blobs of just over half the budget
// under distinct keys cannot both stay resident; the older is evicted, so
// published snapshots never hold more than maxBlobBytes of memory.
func TestCoordinatorBlobMemoryBound(t *testing.T) {
	worker := fakeWorker(t, okHealth(0, 2, 0), nil)
	c, ts := newTestCoordinator(t, CoordinatorConfig{Workers: []string{worker.URL}})

	blob := make([]byte, maxBlobBytes/2+1)
	for _, key := range []string{"old", "new"} {
		if code := putBlob(t, c, key, blob); code != http.StatusNoContent {
			t.Fatalf("put %s: status %d", key, code)
		}
	}
	if st := c.blobs.Stats(); st.Bytes > maxBlobBytes {
		t.Errorf("resident blob bytes %d exceed the %d budget", st.Bytes, maxBlobBytes)
	}
	if _, ok := c.blobs.Get("old"); ok {
		t.Error("older blob still resident past the budget")
	}
	if _, ok := c.blobs.Get("new"); !ok {
		t.Error("newest blob evicted")
	}
	if m := scrape(t, ts.URL+"/metrics"); !strings.Contains(m, "sweepd_coord_snapshot_blobs 1\n") {
		t.Error("metrics do not report exactly one resident blob")
	}
}

// TestCoordinatorDirectPassThrough: a healthy dispatch relays the
// worker's bytes, headers, and status verbatim, tagged with the shard.
func TestCoordinatorDirectPassThrough(t *testing.T) {
	const payload = `{"exp":"E1","title":"t","tables":[]}`
	worker := fakeWorker(t, okHealth(0, 2, 0), func(w http.ResponseWriter, r *http.Request) {
		var req SweepRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.Exp != "E1" {
			t.Errorf("worker got mangled request: %v %+v", err, req)
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Sweepd-Source", "hit")
		w.Write([]byte(payload))
	})
	_, ts := newTestCoordinator(t, CoordinatorConfig{Workers: []string{worker.URL}})

	resp := postJSON(t, ts.URL+"/api/v1/run", `{"exp":"E1","quick":true}`)
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if !bytes.Equal(body, []byte(payload)) {
		t.Errorf("body not relayed verbatim: %s", body)
	}
	if got := resp.Header.Get("X-Sweepd-Source"); got != "hit" {
		t.Errorf("X-Sweepd-Source = %q, want hit", got)
	}
	if got := resp.Header.Get("X-Sweepd-Worker"); got != "w0" {
		t.Errorf("X-Sweepd-Worker = %q, want w0", got)
	}
}

// TestCoordinatorExperimentsCatalog: the catalog is a property of the
// coordinator's build and answers even with every shard down.
func TestCoordinatorExperimentsCatalog(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	_, ts := newTestCoordinator(t, CoordinatorConfig{Workers: []string{dead.URL}})

	resp, err := http.Get(ts.URL + "/api/v1/experiments")
	if err != nil {
		t.Fatal(err)
	}
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var catalog []struct {
		ID    string `json:"id"`
		Title string `json:"title"`
	}
	if err := json.Unmarshal(body, &catalog); err != nil {
		t.Fatalf("catalog not JSON: %v\n%s", err, body)
	}
	ids := make(map[string]bool, len(catalog))
	for _, e := range catalog {
		ids[e.ID] = true
	}
	for _, want := range []string{"E1", "E18", "E19"} {
		if !ids[want] {
			t.Errorf("catalog missing %s: %v", want, ids)
		}
	}
}

// keyRecorder is a cache store that remembers the key of every Put.
type keyRecorder struct {
	cache.Store
	mu   sync.Mutex
	puts []string
}

func (s *keyRecorder) Put(key string, val []byte) {
	s.mu.Lock()
	s.puts = append(s.puts, key)
	s.mu.Unlock()
	s.Store.Put(key, val)
}

func (s *keyRecorder) last() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.puts) == 0 {
		return ""
	}
	return s.puts[len(s.puts)-1]
}

// TestCoordinatorShardKeyIsWorkerCacheKey: the key a coordinator shards a
// request by — listed on its dead-letter entry — is the key the worker
// stores the result under, for experiments, scenarios and a non-default
// network preset alike. A drift between the two would scatter repeats
// across shards and miss every warm cache.
func TestCoordinatorShardKeyIsWorkerCacheKey(t *testing.T) {
	rec := &keyRecorder{Store: cache.NewMemStore(64 << 20)}
	srv := New(Config{Version: "test", Timeout: time.Minute, CacheStore: rec})
	t.Cleanup(srv.Close)
	var failing atomic.Bool
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/api/v1/run" && failing.Load() {
			writeJSON(w, http.StatusInternalServerError, errorBody{Error: "synthetic worker failure"})
			return
		}
		srv.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(worker.Close)
	_, ts := newTestCoordinator(t, CoordinatorConfig{
		Workers:     []string{worker.URL},
		RetryBase:   5 * time.Millisecond,
		MaxAttempts: 1,
	})

	sc := exp.Scenario{Workload: "stencil2d", Ranks: 8, Protocol: "coordinated",
		FailureLaw: "none", Storage: "none", Noise: "none", Seed: 3}
	for name, req := range map[string]SweepRequest{
		"experiment":        {Exp: "E1", Quick: true},
		"scenario":          {Scenario: &sc},
		"scenario ethernet": {Scenario: &sc, Net: "ethernet"},
	} {
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		// A failing worker parks the point, exposing the coordinator's key.
		failing.Store(true)
		resp := postJSON(t, ts.URL+"/api/v1/run", string(body))
		readBody(t, resp)
		if resp.StatusCode != http.StatusBadGateway {
			t.Fatalf("%s: status %d, want 502 (parked)", name, resp.StatusCode)
		}
		entries := clusterDLQ(t, ts.URL)
		if len(entries) != 1 {
			t.Fatalf("%s: DLQ entries = %d, want 1", name, len(entries))
		}
		// Requeued against a healed worker, the point is computed and stored.
		failing.Store(false)
		resp = postJSON(t, ts.URL+"/api/v1/dlq/"+entries[0].ID+"/requeue", "")
		readBody(t, resp)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("%s: requeue status %d", name, resp.StatusCode)
		}
		deadline := time.Now().Add(30 * time.Second)
		for len(clusterDLQ(t, ts.URL)) != 0 {
			if time.Now().After(deadline) {
				t.Fatalf("%s: DLQ did not drain after requeue", name)
			}
			time.Sleep(5 * time.Millisecond)
		}
		if got := rec.last(); got != entries[0].Key {
			t.Errorf("%s: worker stored under %q, coordinator sharded by %q", name, got, entries[0].Key)
		}
	}
}
