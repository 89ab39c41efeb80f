package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"checkpointsim/internal/stats"
)

// newTestServer builds a Server with test-friendly defaults plus the
// caller's overrides, mounted on an httptest.Server.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Version == "" {
		cfg.Version = "test"
	}
	if cfg.Timeout == 0 {
		cfg.Timeout = time.Minute
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		// Close the server first: it cuts loose any run still in flight,
		// and ts.Close waits for outstanding requests.
		s.Close()
		ts.Close()
	})
	return s, ts
}

func postJSON(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func readBody(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// waitGauge polls g until it reaches n.
func waitGauge(t *testing.T, what string, g *stats.Gauge, n int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for g.Value() < n {
		if time.Now().After(deadline) {
			t.Fatalf("%s stuck at %d, want %d", what, g.Value(), n)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// runResult is the status and body of one /api/v1/run response.
type runResult struct {
	code int
	body []byte
}

// runAsync POSTs body to /api/v1/run in the background; the returned
// channel yields the response.
func runAsync(t *testing.T, base, body string) <-chan runResult {
	t.Helper()
	out := make(chan runResult, 1)
	go func() {
		resp, err := http.Post(base+"/api/v1/run", "application/json", strings.NewReader(body))
		if err != nil {
			t.Error(err)
			out <- runResult{}
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		out <- runResult{resp.StatusCode, b}
	}()
	return out
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 3, Queue: 7})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d %q, want 200", resp.StatusCode, body)
	}
	var h Health
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatalf("healthz body %q: %v", body, err)
	}
	if h.Status != "ok" || h.Workers != 3 || h.QueueCapacity != 7 || h.QueueDepth != 0 {
		t.Errorf("healthz = %+v, want ok with 3 workers, capacity 7, depth 0", h)
	}
	if h.MeanJobSeconds != 0 {
		t.Errorf("idle server reports mean job seconds %v", h.MeanJobSeconds)
	}
}

func TestExperimentsList(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/api/v1/experiments")
	if err != nil {
		t.Fatal(err)
	}
	var list []struct{ ID, Title, Bench string }
	if err := json.Unmarshal(readBody(t, resp), &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 19 {
		t.Fatalf("%d experiments listed, want 19", len(list))
	}
	if list[0].ID != "E1" || list[18].ID != "E19" {
		t.Errorf("unexpected ordering: %s..%s", list[0].ID, list[16].ID)
	}
}

// A run answers in all three formats, and the JSON round-trips through
// the wire types.
func TestRunFormats(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := postJSON(t, ts.URL+"/api/v1/run", `{"exp":"E1","quick":true}`)
	raw := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run: %d %s", resp.StatusCode, raw)
	}
	if src := resp.Header.Get("X-Sweepd-Source"); src != "computed" {
		t.Errorf("first run reports source %q, want computed", src)
	}
	res, err := decodeResult(raw)
	if err != nil {
		t.Fatal(err)
	}
	if res.Exp != "E1" || len(res.Tables) == 0 {
		t.Fatalf("decoded result %s with %d tables", res.Exp, len(res.Tables))
	}

	resp = postJSON(t, ts.URL+"/api/v1/run?format=text", `{"exp":"E1","quick":true}`)
	text := string(readBody(t, resp))
	if !strings.Contains(text, "### E1") || !strings.Contains(text, res.Tables[0].Title) {
		t.Errorf("text rendering missing header or title:\n%s", text)
	}

	resp = postJSON(t, ts.URL+"/api/v1/run?format=csv", `{"exp":"E1","quick":true}`)
	csvOut := string(readBody(t, resp))
	if !strings.HasPrefix(csvOut, strings.Join(res.Tables[0].Cols, ",")) {
		t.Errorf("csv rendering missing header row:\n%.200s", csvOut)
	}

	resp = postJSON(t, ts.URL+"/api/v1/run?format=yaml", `{"exp":"E1","quick":true}`)
	if readBody(t, resp); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown format: %d, want 400", resp.StatusCode)
	}
}

// Error paths on submission: malformed body, unknown fields, missing and
// unknown experiment, bad presets, bad storage, negative timeout.
func TestSubmitErrorPaths(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name string
		body string
		want int
	}{
		{"malformed json", `{"exp":`, http.StatusBadRequest},
		{"unknown field", `{"exp":"E1","turbo":true}`, http.StatusBadRequest},
		{"trailing garbage", `{"exp":"E1"} {"exp":"E2"}`, http.StatusBadRequest},
		{"missing exp", `{"quick":true}`, http.StatusBadRequest},
		{"unknown experiment", `{"exp":"E99"}`, http.StatusNotFound},
		{"bad net preset", `{"exp":"E1","net":"carrier-pigeon"}`, http.StatusBadRequest},
		{"bad storage", `{"exp":"E1","storage":{"aggregate_gbps":-1}}`, http.StatusBadRequest},
		{"negative timeout", `{"exp":"E1","timeout_sec":-5}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		resp := postJSON(t, ts.URL+"/api/v1/run", c.body)
		body := readBody(t, resp)
		if resp.StatusCode != c.want {
			t.Errorf("%s: %d %s, want %d", c.name, resp.StatusCode, body, c.want)
		}
		var eb errorBody
		if err := json.Unmarshal(body, &eb); err != nil || eb.Error == "" {
			t.Errorf("%s: error body %q lacks an error message", c.name, body)
		}
	}
}

// A full queue sheds load with 429 + Retry-After.
func TestQueueFullBackpressure(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, Queue: 1})
	// The lone slot is seized by a long run (full E2), the queue holds
	// one more.
	first := runAsync(t, ts.URL, `{"exp":"E2","seed":102}`)
	waitGauge(t, "running", &s.running, 1)
	second := runAsync(t, ts.URL, `{"exp":"E1","quick":true,"seed":103}`)
	waitGauge(t, "queue depth", &s.queueDepth, 1)

	resp := postJSON(t, ts.URL+"/api/v1/run", `{"exp":"E1","quick":true,"seed":104}`)
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity run: %d %s, want 429", resp.StatusCode, body)
	}
	// Retry-After must parse as non-negative integer seconds (RFC 9110
	// delay-seconds) — a float or duration string breaks real clients.
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 without Retry-After header")
	} else if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
		t.Errorf("Retry-After %q does not parse as positive integer seconds", ra)
	}
	s.Close() // cancel the sweep rather than waiting it out
	<-first
	<-second
}

// retryAfterSeconds scales with the backlog: a deeper queue advises a
// longer backoff, the clamp bounds both ends, and a server with no latency
// history falls back to the 1-second floor.
func TestRetryAfterTracksQueueDepth(t *testing.T) {
	s := New(Config{Version: "test", Workers: 2, Queue: 8})
	defer s.Close()

	if got := s.retryAfterSeconds(); got != 1 {
		t.Errorf("no history: Retry-After %d, want floor 1", got)
	}

	// Recent jobs took ~2s each; (depth/workers + 1) × 2s.
	for i := 0; i < 10; i++ {
		s.jobLat.Observe(2.0)
	}
	setDepth := func(n int64) { s.queueDepth.Add(n - s.queueDepth.Value()) }
	setDepth(0)
	if got := s.retryAfterSeconds(); got != 2 {
		t.Errorf("empty queue: Retry-After %d, want 2", got)
	}
	setDepth(6)
	if got := s.retryAfterSeconds(); got != 8 {
		t.Errorf("depth 6, 2 workers: Retry-After %d, want (6/2+1)*2 = 8", got)
	}
	setDepth(1000) // pathological backlog hits the ceiling
	if got := s.retryAfterSeconds(); got != 60 {
		t.Errorf("deep queue: Retry-After %d, want clamp 60", got)
	}
	setDepth(0)
}

// retryAfter, the one formula behind the worker's and the coordinator's
// Retry-After: no run slots or no latency estimate (zero, negative or the
// NaN mean of an empty latency window) gives the floor, and the result is
// ⌈(depth/workers + 1) × mean⌉ clamped to [1, 60].
func TestRetryAfterFormula(t *testing.T) {
	for _, c := range []struct {
		depth, workers int
		mean           float64
		want           int
	}{
		{4, 0, 2, 1},
		{4, -1, 2, 1},
		{4, 2, 0, 1},
		{4, 2, -1, 1},
		{4, 2, math.NaN(), 1},
		{0, 4, 0.1, 1},
		{6, 2, 2, 8},
		{1, 2, 1.1, 2},
		{1000, 2, 2, 60},
		{0, 1, math.Inf(1), 60},
	} {
		if got := retryAfter(c.depth, c.workers, c.mean); got != c.want {
			t.Errorf("retryAfter(%d, %d, %v) = %d, want %d", c.depth, c.workers, c.mean, got, c.want)
		}
	}
}

// A client that disconnects mid-run cancels its sweep: the job fails
// instead of running the full-scale sweep to completion.
func TestClientDisconnectCancelsRun(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/api/v1/run",
		strings.NewReader(`{"exp":"E2","seed":106}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	errc := make(chan error, 1)
	go func() {
		_, err := http.DefaultClient.Do(req)
		errc <- err
	}()
	// Let the sweep get going, then vanish.
	time.Sleep(300 * time.Millisecond)
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("cancelled request returned a response")
	}

	// The lone job must end failed, not done: cancellation propagated
	// into the sweep pool rather than the run going on to completion.
	deadline := time.Now().Add(15 * time.Second)
	for s.jobsByEnd[jobFailed].Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("job never failed after client disconnect")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if done := s.jobsByEnd[jobDone].Value(); done != 0 {
		t.Errorf("%d jobs done after the client disconnected, want 0", done)
	}
}

// A request timeout caps the run: the job fails with deadline exceeded
// instead of holding a worker for the full sweep.
func TestJobTimeout(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := postJSON(t, ts.URL+"/api/v1/run", `{"exp":"E2","seed":107,"timeout_sec":0.05}`)
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("timed-out run: %d %s, want 500", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "context deadline exceeded") {
		t.Errorf("error body %s does not name the deadline", body)
	}
}

// A timeout_sec too large for a time.Duration is capped at the server
// default, not overflowed into an already-expired deadline.
func TestHugeTimeoutIsCapped(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := postJSON(t, ts.URL+"/api/v1/run", `{"exp":"E1","quick":true,"timeout_sec":1e300}`)
	if body := readBody(t, resp); resp.StatusCode != http.StatusOK {
		t.Fatalf("run with timeout_sec 1e300: %d %s, want 200", resp.StatusCode, body)
	}
	for _, sec := range []float64{1e300, 9.3e9, 3600} {
		if got := (SweepRequest{TimeoutSec: sec}).timeout(time.Minute); got != time.Minute {
			t.Errorf("timeout_sec %g: %s, want the 1m cap", sec, got)
		}
	}
	if got := (SweepRequest{TimeoutSec: 0.5}).timeout(time.Minute); got != 500*time.Millisecond {
		t.Errorf("timeout_sec 0.5: %s, want 500ms", got)
	}
}

// Runs requested during a drain answer 503, and healthz flips.
func TestDrainRejectsNewWork(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	// Complete one job first.
	resp := postJSON(t, ts.URL+"/api/v1/run", `{"exp":"E1","quick":true,"seed":108}`)
	cold := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm-up run: %d %s", resp.StatusCode, cold)
	}

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()
	deadline := time.Now().Add(10 * time.Second)
	for !s.Draining() {
		if time.Now().After(deadline) {
			t.Fatal("server never started draining")
		}
		time.Sleep(time.Millisecond)
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	readBody(t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining: %d, want 503", resp.StatusCode)
	}
	resp = postJSON(t, ts.URL+"/api/v1/run", `{"exp":"E1","quick":true,"seed":109}`)
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("run while draining: %d %s, want 503", resp.StatusCode, body)
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// The metrics endpoint exposes request, job, queue, cache, and latency
// series in Prometheus text format; pprof answers on /debug/pprof/.
func TestMetricsAndPprof(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := postJSON(t, ts.URL+"/api/v1/run", `{"exp":"E1","quick":true,"seed":111}`)
	readBody(t, resp)
	resp = postJSON(t, ts.URL+"/api/v1/run", `{"exp":"E1","quick":true,"seed":111}`)
	readBody(t, resp)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics := string(readBody(t, resp))
	for _, want := range []string{
		"sweepd_up 1",
		`sweepd_requests_total{route="POST /api/v1/run",code="200"} 2`,
		`sweepd_jobs_total{state="done"} 2`,
		"sweepd_cache_hits_total 1",
		"sweepd_cache_misses_total 1",
		"sweepd_cache_entries 1",
		"sweepd_queue_depth 0",
		"sweepd_sim_events_total",
		"sweepd_job_duration_seconds_count 2",
		"sweepd_http_request_duration_seconds_count",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	resp, err = http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	pprofBody := readBody(t, resp)
	if resp.StatusCode != http.StatusOK || !bytes.Contains(pprofBody, []byte("goroutine")) {
		t.Errorf("pprof index: %d", resp.StatusCode)
	}
}

// Config defaulting sanity.
func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Queue != 64 || c.Workers != 2 || c.CacheBytes != 256<<20 || c.Version != "dev" {
		t.Errorf("defaults = %+v", c)
	}
	neg := Config{CacheBytes: -1}.withDefaults()
	if neg.CacheBytes != -1 {
		t.Errorf("negative cache budget (disable) overwritten: %d", neg.CacheBytes)
	}
}
