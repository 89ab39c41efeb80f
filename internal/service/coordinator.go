package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"checkpointsim/internal/cache"
	"checkpointsim/internal/stats"
)

// Coordinator fronts a cluster of sweepd workers. It owns no simulation
// work itself: every request is addressed by the same cache key a worker
// would compute, rendezvous-hashed (cache.PickNode) across the live
// worker set, and proxied. Because key→worker placement is sticky, each
// worker's cache and singleflight see every repeat of "its" points — the
// cluster behaves like one big sharded cache with no cross-worker
// duplication.
//
// Failure handling is the point of the design (DESIGN.md S27):
//
//   - A dispatch that fails retryably (transport error, 5xx) lands the
//     point in a dead-letter queue. A per-entry loop re-dispatches with
//     bounded exponential backoff to whichever worker the hash now
//     selects from the survivors; the waiting client is released when
//     the retry succeeds, with bytes identical to what the dead worker
//     would have served.
//   - Workers publish mid-run scenario snapshots to the coordinator
//     (POST /api/v1/snapshots/{key}). A re-dispatch of a scenario point
//     ships the latest blob as resume_b64, so the inheriting worker
//     resumes from the dead peer's last boundary instead of t=0 —
//     byte-identically, with a cold run as the fallback.
//   - 429 from a worker passes through, but with Retry-After recomputed
//     from cluster-wide queue depth (the single-worker estimate is
//     systematically short when the other shards are also deep).
type Coordinator struct {
	cfg    CoordinatorConfig
	client *http.Client
	mux    *http.ServeMux
	q      *dlq

	workers []*workerState // fixed membership; liveness varies

	blobMu    sync.Mutex
	blobs     map[string][]byte
	blobOrder []string // key insertion order, for cap eviction

	baseCtx    context.Context
	baseCancel context.CancelFunc
	closeOnce  sync.Once
	wg         sync.WaitGroup

	// metrics
	reqs          *httpMetrics
	dispatches    map[string]*stats.Counter // worker name → proxied requests
	failovers     stats.Counter             // dispatches that left the first-choice worker
	dlqEntered    stats.Counter
	dlqRecovered  stats.Counter
	dlqParkedN    stats.Counter
	dlqRequeued   stats.Counter
	blobsStored   stats.Counter
	resumeShipped stats.Counter // re-dispatches that carried a snapshot blob
	started       time.Time
}

// CoordinatorConfig tunes a Coordinator. Zero values select defaults.
type CoordinatorConfig struct {
	// Workers are the base URLs of the sweepd workers (required, ≥1).
	// Shard names w0..wN follow slice order, so a restarted cluster with
	// the same -workers list reproduces the same placement.
	Workers []string
	// Version must match the workers' version tag: the coordinator
	// computes the same cache keys the workers do, and a mismatch would
	// shard correctly but log misleading keys. Default "dev".
	Version string
	// Client issues all proxied requests (default: a fresh http.Client;
	// per-request deadlines come from contexts, not a client timeout).
	Client *http.Client
	// HealthEvery is the liveness poll cadence (default 1s).
	HealthEvery time.Duration
	// RetryBase is the first dead-letter backoff; attempt n waits
	// RetryBase×2^(n-1) (default 250ms).
	RetryBase time.Duration
	// RetryCap bounds a single backoff wait (default 10s).
	RetryCap time.Duration
	// MaxAttempts bounds dead-letter retries before parking (default 5).
	MaxAttempts int
	// DispatchTimeout caps one proxied request (default 15m — above the
	// workers' own 10m job timeout, so the worker's verdict arrives).
	DispatchTimeout time.Duration
	// MaxBlobs caps retained snapshot blobs, one per cache key, evicting
	// the oldest key (default 64). Blobs are recovery hints; evicting one
	// costs a cold rerun, never correctness.
	MaxBlobs int
}

func (c CoordinatorConfig) withDefaults() CoordinatorConfig {
	if c.Version == "" {
		c.Version = "dev"
	}
	if c.Client == nil {
		c.Client = &http.Client{}
	}
	if c.HealthEvery <= 0 {
		c.HealthEvery = time.Second
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 250 * time.Millisecond
	}
	if c.RetryCap <= 0 {
		c.RetryCap = 10 * time.Second
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 5
	}
	if c.DispatchTimeout <= 0 {
		c.DispatchTimeout = 15 * time.Minute
	}
	if c.MaxBlobs <= 0 {
		c.MaxBlobs = 64
	}
	return c
}

// workerState is one worker's membership record. Liveness flips on
// health polls and on dispatch feedback (a transport error marks the
// worker dead immediately rather than waiting out the poll interval).
type workerState struct {
	name string
	url  string

	mu       sync.Mutex
	alive    bool
	health   Health
	lastSeen time.Time
	lastErr  string
}

func (ws *workerState) isAlive() bool {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	return ws.alive
}

func (ws *workerState) setDead(reason string) {
	ws.mu.Lock()
	ws.alive = false
	ws.lastErr = reason
	ws.mu.Unlock()
}

// WorkerInfo is the wire form of one worker row (GET /api/v1/workers).
type WorkerInfo struct {
	Name     string    `json:"name"`
	URL      string    `json:"url"`
	Alive    bool      `json:"alive"`
	Health   Health    `json:"health"`
	LastSeen time.Time `json:"last_seen"`
	LastErr  string    `json:"last_error,omitempty"`
}

// NewCoordinator builds a coordinator over the configured workers, probes
// their health once synchronously (so the first request dispatches on
// real liveness, not guesses), and starts the poll loop.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Workers) == 0 {
		return nil, errors.New("service: coordinator needs at least one worker URL")
	}
	ctx, cancel := context.WithCancel(context.Background())
	c := &Coordinator{
		cfg:        cfg,
		client:     cfg.Client,
		q:          newDLQ(),
		blobs:      make(map[string][]byte),
		baseCtx:    ctx,
		baseCancel: cancel,
		reqs:       newHTTPMetrics(),
		dispatches: make(map[string]*stats.Counter),
		started:    time.Now(),
	}
	for i, u := range cfg.Workers {
		ws := &workerState{name: "w" + strconv.Itoa(i), url: strings.TrimRight(u, "/")}
		c.workers = append(c.workers, ws)
		c.dispatches[ws.name] = new(stats.Counter)
	}
	c.mux = c.buildMux()
	c.refreshHealth()
	c.wg.Add(1)
	go c.healthLoop()
	return c, nil
}

// Handler returns the coordinator's HTTP handler.
func (c *Coordinator) Handler() http.Handler { return c.mux }

// Close stops the poll loop and every in-flight dead-letter retry.
func (c *Coordinator) Close() {
	c.closeOnce.Do(c.baseCancel)
	c.wg.Wait()
}

// --- liveness ---

func (c *Coordinator) healthLoop() {
	defer c.wg.Done()
	ticker := time.NewTicker(c.cfg.HealthEvery)
	defer ticker.Stop()
	for {
		select {
		case <-c.baseCtx.Done():
			return
		case <-ticker.C:
			c.refreshHealth()
		}
	}
}

// refreshHealth probes every worker concurrently and updates liveness. A
// worker is alive iff /healthz answers 200 with status "ok" — a draining
// worker reports 503 and stops receiving dispatches, which is exactly a
// graceful handoff: its keys re-shard onto the survivors.
func (c *Coordinator) refreshHealth() {
	var wg sync.WaitGroup
	for _, ws := range c.workers {
		wg.Add(1)
		go func(ws *workerState) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(c.baseCtx, 2*time.Second)
			defer cancel()
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, ws.url+"/healthz", nil)
			if err != nil {
				ws.setDead(err.Error())
				return
			}
			resp, err := c.client.Do(req)
			if err != nil {
				ws.setDead(err.Error())
				return
			}
			defer resp.Body.Close()
			var h Health
			if derr := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&h); derr != nil {
				ws.setDead("bad healthz body: " + derr.Error())
				return
			}
			ws.mu.Lock()
			ws.health = h
			ws.lastSeen = time.Now()
			ws.alive = resp.StatusCode == http.StatusOK && h.Status == "ok"
			if !ws.alive {
				ws.lastErr = fmt.Sprintf("healthz %d (%s)", resp.StatusCode, h.Status)
			} else {
				ws.lastErr = ""
			}
			ws.mu.Unlock()
		}(ws)
	}
	wg.Wait()
}

// aliveNames returns the names of live workers, in membership order.
func (c *Coordinator) aliveNames() []string {
	names := make([]string, 0, len(c.workers))
	for _, ws := range c.workers {
		if ws.isAlive() {
			names = append(names, ws.name)
		}
	}
	return names
}

func (c *Coordinator) workerByName(name string) *workerState {
	for _, ws := range c.workers {
		if ws.name == name {
			return ws
		}
	}
	return nil
}

// pickAlive rendezvous-hashes key over the live worker set. Restricting
// the candidate set to survivors is what makes failover automatic: the
// highest-weight survivor for a key is exactly RankNodes' next choice
// after the dead primary, so only the dead worker's keys move.
func (c *Coordinator) pickAlive(key string) *workerState {
	name := cache.PickNode(key, c.aliveNames())
	if name == "" {
		return nil
	}
	return c.workerByName(name)
}

// --- proxying ---

// proxyResult is a fully buffered worker response: status, the header
// subset worth relaying, and the body verbatim. Buffering (rather than
// streaming) is what lets the DLQ hand the same bytes to every waiter.
type proxyResult struct {
	worker string
	code   int
	header http.Header
	body   []byte
}

// maxProxyBytes bounds a buffered worker response (results are tables of
// formatted cells; 64 MiB is far above any real sweep).
const maxProxyBytes = 64 << 20

// forward issues one request to a worker and buffers the response.
func (c *Coordinator) forward(ctx context.Context, ws *workerState, method, path string, body []byte) (*proxyResult, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, ws.url+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, maxProxyBytes))
	if err != nil {
		return nil, err
	}
	c.dispatches[ws.name].Inc()
	return &proxyResult{worker: ws.name, code: resp.StatusCode, header: resp.Header.Clone(), body: b}, nil
}

// relayHeaders is the response-header subset a proxy passes through.
var relayHeaders = []string{
	"Content-Type", "Retry-After",
	"X-Sweepd-Job", "X-Sweepd-Source", "X-Sweepd-Elapsed-Ms", retryableHeader,
}

// relay writes a buffered worker response to the client, tagging which
// shard served it.
func relay(w http.ResponseWriter, res *proxyResult) {
	for _, k := range relayHeaders {
		if v := res.header.Get(k); v != "" {
			w.Header().Set(k, v)
		}
	}
	if res.worker != "" {
		w.Header().Set("X-Sweepd-Worker", res.worker)
	}
	w.WriteHeader(res.code)
	w.Write(res.body)
}

// retryable reports whether a worker response means "another worker (or a
// later attempt) could still produce this result": server-side failures
// and drain refusals, never the 4xx verdicts a request has earned on its
// own merits, nor a failure the worker marked final (a run that panicked).
func (res *proxyResult) retryable() bool {
	switch res.code {
	case http.StatusInternalServerError, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return res.header.Get(retryableHeader) != "false"
	}
	return false
}

// --- handlers ---

func (c *Coordinator) buildMux() *http.ServeMux {
	mux := http.NewServeMux()
	h := func(pattern string, fn http.HandlerFunc) {
		mux.Handle(pattern, c.reqs.instrument(pattern, fn))
	}
	h("GET /healthz", c.handleHealthz)
	h("GET /metrics", c.handleMetrics)
	h("GET /api/v1/experiments", handleExperiments)
	h("GET /api/v1/workers", c.handleWorkers)
	h("POST /api/v1/run", c.handleRunSync)
	h("GET /api/v1/dlq", c.handleDLQList)
	h("POST /api/v1/dlq/{id}/requeue", c.handleDLQRequeue)
	h("POST /api/v1/snapshots/{key}", c.handleSnapshotPut)
	h("GET /api/v1/snapshots/{key}", c.handleSnapshotGet)
	return mux
}

// CoordHealth is the coordinator's /healthz body: cluster liveness plus
// the aggregate load picture behind its Retry-After estimates.
type CoordHealth struct {
	Status        string `json:"status"` // "ok", or "degraded" (with 503) when no worker is alive
	WorkersAlive  int    `json:"workers_alive"`
	WorkersTotal  int    `json:"workers_total"`
	QueueDepth    int    `json:"queue_depth"`    // summed over live workers
	QueueCapacity int    `json:"queue_capacity"` // summed over live workers
	DLQRetrying   int    `json:"dlq_retrying"`
	DLQParked     int    `json:"dlq_parked"`
}

func (c *Coordinator) clusterHealth() CoordHealth {
	h := CoordHealth{Status: "ok", WorkersTotal: len(c.workers)}
	for _, ws := range c.workers {
		ws.mu.Lock()
		if ws.alive {
			h.WorkersAlive++
			h.QueueDepth += ws.health.QueueDepth
			h.QueueCapacity += ws.health.QueueCapacity
		}
		ws.mu.Unlock()
	}
	if h.WorkersAlive == 0 {
		h.Status = "degraded"
	}
	h.DLQRetrying, h.DLQParked = c.q.depth()
	return h
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := c.clusterHealth()
	code := http.StatusOK
	if h.Status != "ok" {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, h)
}

func (c *Coordinator) handleWorkers(w http.ResponseWriter, r *http.Request) {
	out := make([]WorkerInfo, 0, len(c.workers))
	for _, ws := range c.workers {
		ws.mu.Lock()
		out = append(out, WorkerInfo{
			Name: ws.name, URL: ws.url, Alive: ws.alive,
			Health: ws.health, LastSeen: ws.lastSeen, LastErr: ws.lastErr,
		})
		ws.mu.Unlock()
	}
	writeJSON(w, http.StatusOK, out)
}

// retryAfterSeconds is the cluster-wide version of the worker estimate:
// total backlog over total workers, at the slowest live shard's mean job
// latency, clamped like the worker's to integer [1, 60] seconds. Using
// one shard's own depth would systematically under-advise whenever the
// other shards are also deep — the exact bug this replaces.
func (c *Coordinator) retryAfterSeconds() int {
	depth, workers := 0, 0
	mean := 0.0
	for _, ws := range c.workers {
		ws.mu.Lock()
		if ws.alive {
			depth += ws.health.QueueDepth
			workers += ws.health.Workers
			if ws.health.MeanJobSeconds > mean {
				mean = ws.health.MeanJobSeconds
			}
		}
		ws.mu.Unlock()
	}
	if workers == 0 || mean <= 0 {
		return 1
	}
	secs := math.Ceil((float64(depth)/float64(workers) + 1) * mean)
	if secs < 1 {
		return 1
	}
	if secs > 60 {
		return 60
	}
	return int(secs)
}

// handleRunSync is the cluster's synchronous run path. Happy path: one
// proxied request to the key's worker, response relayed verbatim (the
// byte-identity the cache guarantees extends through the proxy). On a
// retryable failure the point enters the DLQ and the client waits on the
// recovery loop — a killed worker costs latency, never a lost or
// corrupted result.
func (c *Coordinator) handleRunSync(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "unreadable request body"})
		return
	}
	req, err := decodeRequest(bytes.NewReader(body))
	if err != nil {
		writeRequestError(w, err)
		return
	}
	// The sharding address is the worker's cache key: same request → same
	// key → same worker, so repeats and concurrent duplicates land where
	// the cache is warm. The experiment ID doubles as the DLQ listing spec.
	point, _, key, err := req.address(c.cfg.Version)
	if err != nil {
		writeRequestError(w, err)
		return
	}

	if ws := c.pickAlive(key); ws != nil {
		path := "/api/v1/run"
		if q := r.URL.RawQuery; q != "" {
			path += "?" + q
		}
		ctx, cancel := context.WithTimeout(r.Context(), c.cfg.DispatchTimeout)
		res, ferr := c.forward(ctx, ws, http.MethodPost, path, body)
		cancel()
		if ferr == nil && !res.retryable() {
			if res.code == http.StatusTooManyRequests {
				res.header.Set("Retry-After", strconv.Itoa(c.retryAfterSeconds()))
			}
			relay(w, res)
			return
		}
		if ferr != nil {
			if r.Context().Err() != nil {
				return // the client hung up, not the worker
			}
			ws.setDead(ferr.Error())
		}
	}

	// Retryable failure (or no live worker at all): dead-letter the point.
	e, created := c.q.enter(key, point.ID, req, time.Now())
	if created {
		c.dlqEntered.Inc()
		c.wg.Add(1)
		go c.retryLoop(e)
	}
	select {
	case <-e.done:
		if res := e.outcome(); res != nil {
			relay(w, res)
			return
		}
		snap := e.snapshot(c.cfg.MaxAttempts)
		writeJSON(w, http.StatusBadGateway, errorBody{
			Error: fmt.Sprintf("point parked in dead-letter queue as %s after %d attempts: %s",
				snap.ID, snap.Attempts, snap.LastError),
		})
	case <-r.Context().Done():
		// Client gone; the recovery loop carries on — the next identical
		// request joins the same entry or hits the warmed shard cache.
	case <-c.baseCtx.Done():
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "coordinator shutting down"})
	}
}

// retryLoop drives one dead-letter entry to resolution: backoff, pick a
// live worker for the key (re-sharding is implicit — the hash is over
// survivors), re-dispatch with the freshest snapshot blob attached, until
// success or the attempt budget parks it. The loop runs under the
// coordinator's own context, not any client's: recovery outlives the
// request that observed the failure.
func (c *Coordinator) retryLoop(e *dlqEntry) {
	defer c.wg.Done()
	for {
		e.mu.Lock()
		attempt := e.attempts + 1
		e.mu.Unlock()
		if attempt > c.cfg.MaxAttempts {
			break
		}
		delay := c.cfg.RetryBase << (attempt - 1)
		if delay > c.cfg.RetryCap || delay <= 0 {
			delay = c.cfg.RetryCap
		}
		e.noteAttempt(attempt, time.Now().Add(delay))
		select {
		case <-time.After(delay):
		case <-c.baseCtx.Done():
			return
		}
		c.refreshHealth() // don't re-dispatch on a stale liveness picture
		ws := c.pickAlive(e.key)
		if ws == nil {
			e.noteError("no live workers")
			continue
		}
		c.failovers.Inc()
		body, withBlob := c.bodyWithResume(e)
		if withBlob {
			c.resumeShipped.Inc()
		}
		ctx, cancel := context.WithTimeout(c.baseCtx, c.cfg.DispatchTimeout)
		res, err := c.forward(ctx, ws, http.MethodPost, "/api/v1/run", body)
		cancel()
		if err != nil {
			ws.setDead(err.Error())
			e.noteError(err.Error())
			continue
		}
		if res.retryable() || res.code == http.StatusTooManyRequests {
			// 429 is terminal for a direct client (its contract is "back
			// off yourself") but the DLQ *is* the backoff — absorb it.
			e.noteError(fmt.Sprintf("worker %s: status %d: %s", ws.name, res.code, strings.TrimSpace(string(res.body))))
			continue
		}
		c.q.resolve(e, res)
		c.dlqRecovered.Inc()
		return
	}
	e.mu.Lock()
	lastErr := e.lastErr
	e.mu.Unlock()
	c.q.park(e, lastErr)
	c.dlqParkedN.Inc()
}

// bodyWithResume marshals the entry's request, attaching the latest
// snapshot blob for scenario points so the inheriting worker resumes
// from the dead peer's last boundary. The blob is looked up fresh on
// every attempt — a later snapshot may have arrived between retries.
func (c *Coordinator) bodyWithResume(e *dlqEntry) (body []byte, withBlob bool) {
	req := e.req
	if req.Scenario != nil {
		if blob := c.blobFor(e.key); blob != nil {
			req.Resume = blob
			withBlob = true
		}
	}
	b, err := json.Marshal(req)
	if err != nil { // unreachable: the request decoded from JSON
		b, _ = json.Marshal(e.req)
		return b, false
	}
	return b, withBlob
}

// --- DLQ endpoints ---

func (c *Coordinator) handleDLQList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, c.q.list(c.cfg.MaxAttempts))
}

func (c *Coordinator) handleDLQRequeue(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	e, ok := c.q.requeue(id, time.Now())
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: fmt.Sprintf("no parked dead-letter entry %q", id)})
		return
	}
	c.dlqRequeued.Inc()
	c.wg.Add(1)
	go c.retryLoop(e)
	writeJSON(w, http.StatusAccepted, e.snapshot(c.cfg.MaxAttempts))
}

// --- snapshot blob shipping ---

// maxBlobBytes bounds one published snapshot blob.
const maxBlobBytes = 64 << 20

// handleSnapshotPut ingests a worker's mid-run snapshot for a cache key,
// latest-wins. The store is a bounded map, not a database: blobs exist
// to cut recovery time, and the oldest key is evicted past the cap.
func (c *Coordinator) handleSnapshotPut(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	blob, err := io.ReadAll(io.LimitReader(r.Body, maxBlobBytes+1))
	if err != nil || len(blob) == 0 || len(blob) > maxBlobBytes {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad snapshot blob"})
		return
	}
	c.blobMu.Lock()
	if _, exists := c.blobs[key]; !exists {
		c.blobOrder = append(c.blobOrder, key)
		for len(c.blobOrder) > c.cfg.MaxBlobs {
			oldest := c.blobOrder[0]
			c.blobOrder = c.blobOrder[1:]
			delete(c.blobs, oldest)
		}
	}
	c.blobs[key] = blob
	c.blobMu.Unlock()
	c.blobsStored.Inc()
	w.WriteHeader(http.StatusNoContent)
}

func (c *Coordinator) handleSnapshotGet(w http.ResponseWriter, r *http.Request) {
	blob := c.blobFor(r.PathValue("key"))
	if blob == nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "no snapshot for key"})
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(blob)
}

func (c *Coordinator) blobFor(key string) []byte {
	c.blobMu.Lock()
	defer c.blobMu.Unlock()
	return c.blobs[key]
}

// --- metrics ---

func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	p := func(format string, args ...any) { fmt.Fprintf(w, format, args...) }

	h := c.clusterHealth()
	p("# HELP sweepd_coord_up Whether any worker shard is accepting work.\n")
	p("# TYPE sweepd_coord_up gauge\n")
	up := 0
	if h.WorkersAlive > 0 {
		up = 1
	}
	p("sweepd_coord_up %d\n", up)
	p("# TYPE sweepd_coord_uptime_seconds counter\n")
	p("sweepd_coord_uptime_seconds %.3f\n", time.Since(c.started).Seconds())
	p("# TYPE sweepd_coord_workers_alive gauge\n")
	p("sweepd_coord_workers_alive %d\n", h.WorkersAlive)
	p("# TYPE sweepd_coord_workers_total gauge\n")
	p("sweepd_coord_workers_total %d\n", h.WorkersTotal)
	p("# HELP sweepd_coord_queue_depth Aggregate job-queue depth across live workers.\n")
	p("# TYPE sweepd_coord_queue_depth gauge\n")
	p("sweepd_coord_queue_depth %d\n", h.QueueDepth)
	p("# TYPE sweepd_coord_queue_capacity gauge\n")
	p("sweepd_coord_queue_capacity %d\n", h.QueueCapacity)

	c.reqs.writeRequests(p, "sweepd_coord_requests_total")

	p("# HELP sweepd_coord_dispatches_total Requests proxied to each worker shard.\n")
	p("# TYPE sweepd_coord_dispatches_total counter\n")
	for _, ws := range c.workers {
		p("sweepd_coord_dispatches_total{worker=%q} %d\n", ws.name, c.dispatches[ws.name].Value())
	}
	p("# HELP sweepd_coord_failovers_total Dispatches routed away from the first-choice shard (includes every DLQ re-dispatch).\n")
	p("# TYPE sweepd_coord_failovers_total counter\n")
	p("sweepd_coord_failovers_total %d\n", c.failovers.Value())

	p("# HELP sweepd_coord_dlq_entered_total Points that entered the dead-letter queue.\n")
	p("# TYPE sweepd_coord_dlq_entered_total counter\n")
	p("sweepd_coord_dlq_entered_total %d\n", c.dlqEntered.Value())
	p("# TYPE sweepd_coord_dlq_recovered_total counter\n")
	p("sweepd_coord_dlq_recovered_total %d\n", c.dlqRecovered.Value())
	p("# TYPE sweepd_coord_dlq_parked_total counter\n")
	p("sweepd_coord_dlq_parked_total %d\n", c.dlqParkedN.Value())
	p("# TYPE sweepd_coord_dlq_requeued_total counter\n")
	p("sweepd_coord_dlq_requeued_total %d\n", c.dlqRequeued.Value())
	p("# TYPE sweepd_coord_dlq_retrying gauge\n")
	p("sweepd_coord_dlq_retrying %d\n", h.DLQRetrying)
	p("# TYPE sweepd_coord_dlq_parked gauge\n")
	p("sweepd_coord_dlq_parked %d\n", h.DLQParked)

	p("# HELP sweepd_coord_snapshots_stored_total Snapshot blobs published by workers.\n")
	p("# TYPE sweepd_coord_snapshots_stored_total counter\n")
	p("sweepd_coord_snapshots_stored_total %d\n", c.blobsStored.Value())
	p("# HELP sweepd_coord_resume_shipped_total DLQ re-dispatches that carried a snapshot blob for mid-run resume.\n")
	p("# TYPE sweepd_coord_resume_shipped_total counter\n")
	p("sweepd_coord_resume_shipped_total %d\n", c.resumeShipped.Value())
	c.blobMu.Lock()
	nblobs := len(c.blobs)
	c.blobMu.Unlock()
	p("# TYPE sweepd_coord_snapshot_blobs gauge\n")
	p("sweepd_coord_snapshot_blobs %d\n", nblobs)

	writeLatency(p, "sweepd_coord_http_request_duration_seconds", c.reqs.lat)
}
