package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"checkpointsim/internal/cache"
	"checkpointsim/internal/exp"
	"checkpointsim/internal/runner"
	"checkpointsim/internal/sim"
	"checkpointsim/internal/stats"
)

// Config tunes a Server. Zero values select the documented defaults.
type Config struct {
	// Queue is how many requests may wait for a run slot beyond the Workers
	// running (default 64). A full queue sheds load: 429 + Retry-After.
	Queue int
	// Workers is the number of jobs executed concurrently (default 2).
	// Each job additionally fans its sweep points across JobsPerRun cores,
	// so total parallelism is Workers × JobsPerRun.
	Workers int
	// JobsPerRun is exp.Options.Jobs for each job (default 0: GOMAXPROCS).
	JobsPerRun int
	// CacheBytes is the result cache budget (default 256 MiB; negative
	// disables caching, 0 selects the default).
	CacheBytes int64
	// CacheStore, when non-nil, is the cache's persistence backend and
	// CacheBytes is ignored (the store was built with its own budget). This
	// is the storage-plugin seam: cmd/sweepd passes a cache.DiskStore here
	// for -cache-dir, so warm results survive restarts; tests pass
	// purpose-built stores. The server owns the store from here on and
	// closes it in Close.
	CacheStore cache.Store
	// Timeout is the default and maximum per-job runtime (default 10m).
	Timeout time.Duration
	// Version tags cache keys with the code build (default "dev"): results
	// cached by one build are invisible to another.
	Version string
	// SnapshotDir, when non-empty, persists mid-run simulator snapshots of
	// scenario jobs to this directory (one atomically written file per
	// job, keyed by cache key). A server restarted after a crash resumes a
	// resubmitted scenario from its last persisted boundary instead of
	// from t=0, byte-identically; the snapshot is deleted when the job
	// completes. Experiment sweeps are not snapshotted — a sweep is many
	// short simulations, and its natural unit of retry is the point.
	SnapshotDir string
	// SnapshotEvery is the event cadence for scenario-job snapshots
	// (default 100000; only meaningful with SnapshotDir or
	// PublishSnapshot).
	SnapshotEvery int64
	// PublishSnapshot, when non-nil, receives every scenario-job snapshot
	// (cache key + sealed blob) as it is taken, in addition to any local
	// SnapshotDir persistence. A cluster worker points this at its
	// coordinator so that if the worker dies, the coordinator can ship the
	// last blob to whichever worker inherits the job. The callback runs on
	// the job's goroutine between simulation events — implementations that
	// talk to the network should hand the blob off asynchronously.
	PublishSnapshot func(key string, blob []byte)
}

func (c Config) withDefaults() Config {
	if c.Queue <= 0 {
		c.Queue = 64
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 256 << 20
	}
	if c.Timeout <= 0 {
		c.Timeout = 10 * time.Minute
	}
	if c.Version == "" {
		c.Version = "dev"
	}
	if c.SnapshotEvery <= 0 {
		c.SnapshotEvery = 100_000
	}
	return c
}

// Server serves experiment sweeps over HTTP. Construct with New, expose
// with Handler, stop with Drain (graceful) or Close (immediate).
type Server struct {
	cfg   Config
	cache *cache.Cache
	mux   *http.ServeMux
	snaps *snapshotStore // nil unless Config.SnapshotDir is set

	// Admission: a running request holds one of Workers slots, and up to
	// Queue more wait for one. admitMu orders admission against Drain's
	// start, so no inFlight.Add can race Drain's Wait.
	admitMu  sync.Mutex
	slots    chan struct{}
	draining chan struct{}  // closed when Drain begins: wakes waiting requests
	inFlight sync.WaitGroup // admitted requests, waiting or running

	baseCtx    context.Context
	baseCancel context.CancelFunc

	nextID atomic.Int64

	// metrics
	reqs        *httpMetrics
	jobLat      *stats.LatencyHist
	jobsByEnd   map[jobEnd]*stats.Counter
	queueDepth  stats.Gauge // requests waiting for a slot
	running     stats.Gauge
	simEvents   stats.Counter
	jobResumes  stats.Counter // scenario jobs resumed from a persisted snapshot
	snapsTaken  stats.Counter // snapshots persisted to SnapshotDir
	snapErrors  stats.Counter // snapshot persist failures (job unaffected)
	coldRetries stats.Counter // resumes that fell back to a cold run
	started     time.Time
}

// jobEnd labels how a job ended, in sweepd_jobs_total.
type jobEnd string

const (
	jobDone     jobEnd = "done"     // result served
	jobFailed   jobEnd = "failed"   // the run errored, timed out or was cancelled
	jobRejected jobEnd = "rejected" // was waiting for a slot when Drain began; never ran
)

var (
	// errQueueFull maps to 429 + Retry-After.
	errQueueFull = errors.New("job queue full")
	// errDraining maps to 503: the server is shutting down.
	errDraining = errors.New("server draining")
	// errRunPanicked marks a job whose run panicked. A panic is a property
	// of the request, not of the worker, so such a failure is not retryable.
	errRunPanicked = errors.New("run panicked")
)

// retryableHeader, set to "false" on a failed run's response, tells a
// coordinator that re-dispatching the request cannot succeed.
const retryableHeader = "X-Sweepd-Retryable"

// New builds a server.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	c := cache.New(cfg.CacheBytes)
	if cfg.CacheStore != nil {
		c = cache.NewWithStore(cfg.CacheStore)
	}
	s := &Server{
		cfg:        cfg,
		cache:      c,
		slots:      make(chan struct{}, cfg.Workers),
		draining:   make(chan struct{}),
		baseCtx:    ctx,
		baseCancel: cancel,
		reqs:       newHTTPMetrics(),
		jobLat:     stats.NewLatencyHist(1e-6, 3600, 240),
		jobsByEnd: map[jobEnd]*stats.Counter{
			jobDone:     new(stats.Counter),
			jobFailed:   new(stats.Counter),
			jobRejected: new(stats.Counter),
		},
		started: time.Now(),
	}
	if cfg.SnapshotDir != "" {
		s.snaps = newSnapshotStore(cfg.SnapshotDir)
	}
	s.mux = s.buildMux()
	return s
}

// Handler returns the server's HTTP handler (API, health, metrics, pprof).
func (s *Server) Handler() http.Handler { return s.mux }

// Draining reports whether the server has begun shutting down.
func (s *Server) Draining() bool {
	select {
	case <-s.draining:
		return true
	default:
		return false
	}
}

// Drain gracefully shuts the run path down: new requests get 503, waiting
// requests are rejected with 503, and runs already going finish (bounded
// by ctx — when it expires the remaining runs are cancelled, answer 503,
// and Drain returns ctx's error). Safe to call more than once; only the
// first call waits.
func (s *Server) Drain(ctx context.Context) error {
	s.admitMu.Lock()
	if s.Draining() {
		s.admitMu.Unlock()
		return nil
	}
	close(s.draining)
	s.admitMu.Unlock()

	done := make(chan struct{})
	go func() {
		s.inFlight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.baseCancel() // cut running jobs loose
		<-done
		return ctx.Err()
	}
}

// Close shuts down immediately: running jobs are cancelled and the cache's
// backing store is released (a disk-backed store syncs its log here, so
// what was cached is warm on the next start).
func (s *Server) Close() {
	s.baseCancel()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	s.Drain(ctx)
	s.cache.Close()
}

// admit lets a request in: onto a free run slot, else into the wait line
// (waiting is true), else errQueueFull; errDraining once Drain has begun.
// An admitted request counts in inFlight until its handler returns.
func (s *Server) admit() (waiting bool, err error) {
	s.admitMu.Lock()
	defer s.admitMu.Unlock()
	if s.Draining() {
		return false, errDraining
	}
	select {
	case s.slots <- struct{}{}:
	default:
		if s.queueDepth.Value() >= int64(s.cfg.Queue) {
			return false, errQueueFull
		}
		s.queueDepth.Add(1)
		waiting = true
	}
	s.inFlight.Add(1)
	return waiting, nil
}

// awaitSlot holds an admitted request in line until a run slot frees up.
// It gives up with errDraining once Drain begins, or with ctx's error.
func (s *Server) awaitSlot(ctx context.Context) error {
	defer s.queueDepth.Add(-1)
	select {
	case s.slots <- struct{}{}:
		if s.Draining() {
			<-s.slots
			return errDraining
		}
		return nil
	case <-s.draining:
		return errDraining
	case <-ctx.Done():
		return ctx.Err()
	}
}

// runJob executes one job through the cache: hit → stored bytes, miss →
// run the experiment with the job's context threaded into the sweep
// worker pool, concurrent identical request → wait and share. A panic in
// the run fails only its job: the cache has already released the key, the
// job fails with the panic text, and the server goes on serving.
func (s *Server) runJob(ctx context.Context, req SweepRequest, e exp.Experiment, opts exp.Options, key string) (val []byte, src cache.Source, err error) {
	defer func() {
		if r := recover(); r != nil {
			val, src, err = nil, cache.Computed, fmt.Errorf("%w: %v", errRunPanicked, r)
		}
	}()
	return s.cache.GetOrCompute(ctx, key, func(ctx context.Context) ([]byte, error) {
		var events int64
		opts.Ctx = ctx
		opts.Jobs = s.cfg.JobsPerRun
		opts.Events = &events
		if req.Scenario != nil && (s.snaps != nil || s.cfg.PublishSnapshot != nil) {
			// Persist the latest snapshot as the simulation progresses; a
			// server killed mid-run leaves the blob behind (and/or at the
			// coordinator), and the next submission of this job (same key)
			// resumes from it.
			opts.SnapshotEvery = s.cfg.SnapshotEvery
			opts.OnSnapshot = func(snap sim.Snapshot) {
				if s.snaps != nil {
					if serr := s.snaps.save(key, snap.Blob); serr != nil {
						s.snapErrors.Inc()
					} else {
						s.snapsTaken.Inc()
					}
				}
				if s.cfg.PublishSnapshot != nil {
					s.cfg.PublishSnapshot(key, snap.Blob)
				}
			}
		}
		if req.Scenario != nil {
			// A blob shipped in the request (a coordinator re-dispatching a
			// dead worker's job) outranks the local store: it is the most
			// recent boundary anyone persisted for this key.
			if blob := req.Resume; blob != nil {
				opts.ResumeFrom = blob
				s.jobResumes.Inc()
			} else if s.snaps != nil {
				if blob := s.snaps.load(key); blob != nil {
					opts.ResumeFrom = blob
					s.jobResumes.Inc()
				}
			}
		}
		tables, err := e.Run(opts)
		if err != nil && opts.ResumeFrom != nil && ctx.Err() == nil {
			// The snapshot did not carry the run (corrupt blob, or written
			// by an incompatible build): discard it and run cold. Resume is
			// an optimization, never a dependency.
			if s.snaps != nil {
				s.snaps.drop(key)
			}
			s.coldRetries.Inc()
			opts.ResumeFrom = nil
			tables, err = e.Run(opts)
		}
		s.simEvents.Add(events)
		if err != nil {
			return nil, err
		}
		if s.snaps != nil && opts.SnapshotEvery > 0 {
			s.snaps.drop(key)
		}
		return encodeResult(e, tables)
	})
}

// retryAfterSeconds estimates how long a client should back off when the
// queue is full: the time for the backlog ahead of a retry to drain across
// the run slots, plus one slot for the retry itself, at the recent mean
// job latency — (depth/workers + 1) × mean. A constant here under-advises
// whenever the queue is deep (clients hammer a still-full queue) and
// over-advises on an empty-but-bursty one. Clamped to [1, 60] seconds:
// Retry-After is a hint, not a reservation, and an hour-long backoff would
// outlive most clients. With no completed jobs yet there is no latency
// estimate, so the floor applies.
func (s *Server) retryAfterSeconds() int {
	mean := s.jobLat.Mean()
	if math.IsNaN(mean) || mean <= 0 {
		return 1
	}
	backlog := float64(s.queueDepth.Value())/float64(s.cfg.Workers) + 1
	secs := math.Ceil(backlog * mean)
	if secs < 1 {
		return 1
	}
	if secs > 60 {
		return 60
	}
	return int(secs)
}

// CacheStats exposes the result cache counters (tests and cmd/sweepd logs).
func (s *Server) CacheStats() cache.Stats { return s.cache.Stats() }

// SimEvents returns the total simulation events executed by fresh runs —
// cache hits and shared results add nothing, which is exactly what the
// dedup tests assert.
func (s *Server) SimEvents() int64 { return s.simEvents.Value() }

// JobResumes returns how many scenario jobs resumed from a persisted
// snapshot instead of running from t=0.
func (s *Server) JobResumes() int64 { return s.jobResumes.Value() }

// SnapshotsTaken returns how many job snapshots were persisted to
// Config.SnapshotDir.
func (s *Server) SnapshotsTaken() int64 { return s.snapsTaken.Value() }

// ColdRetries returns how many resume attempts fell back to a cold run
// because the persisted snapshot failed to restore.
func (s *Server) ColdRetries() int64 { return s.coldRetries.Value() }

// --- HTTP layer ---

func (s *Server) buildMux() *http.ServeMux {
	mux := http.NewServeMux()
	h := func(pattern string, fn http.HandlerFunc) {
		mux.Handle(pattern, s.reqs.instrument(pattern, fn))
	}
	h("GET /healthz", s.handleHealthz)
	h("GET /metrics", s.handleMetrics)
	h("GET /api/v1/experiments", handleExperiments)
	h("POST /api/v1/run", s.handleRun)
	// Profiling: the standard pprof handlers, reachable at /debug/pprof/.
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return mux
}

// statusRecorder captures the response code for request metrics.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// httpMetrics counts HTTP requests by (route, status) and observes their
// latency. The worker and the coordinator each keep one, so cluster and
// single-process metrics read the same way.
type httpMetrics struct {
	mu     sync.Mutex
	counts map[string]*stats.Counter // "route|code" → count
	lat    *stats.LatencyHist
}

func newHTTPMetrics() *httpMetrics {
	return &httpMetrics{counts: make(map[string]*stats.Counter), lat: stats.NewLatencyHist(1e-6, 3600, 240)}
}

// instrument wraps the handler for route pattern with the accounting.
func (m *httpMetrics) instrument(pattern string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		next.ServeHTTP(rec, r)
		m.lat.Observe(time.Since(start).Seconds())
		key := pattern + "|" + strconv.Itoa(rec.code)
		m.mu.Lock()
		c, ok := m.counts[key]
		if !ok {
			c = new(stats.Counter)
			m.counts[key] = c
		}
		m.mu.Unlock()
		c.Inc()
	})
}

// writeRequests renders the request counters as the counter family name,
// sorted by route and code.
func (m *httpMetrics) writeRequests(p func(string, ...any), name string) {
	p("# HELP %s HTTP requests by route and status code.\n", name)
	p("# TYPE %s counter\n", name)
	m.mu.Lock()
	keys := make([]string, 0, len(m.counts))
	for k := range m.counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	type kv struct {
		key string
		n   int64
	}
	rows := make([]kv, 0, len(keys))
	for _, k := range keys {
		rows = append(rows, kv{k, m.counts[k].Value()})
	}
	m.mu.Unlock()
	for _, row := range rows {
		var route, code string
		if i := strings.LastIndexByte(row.key, '|'); i >= 0 {
			route, code = row.key[:i], row.key[i+1:]
		}
		p("%s{route=%q,code=%q} %d\n", name, route, code, row.n)
	}
}

// writeLatency renders a latency histogram as a summary named name.
func writeLatency(p func(string, ...any), name string, h *stats.LatencyHist) {
	p("# HELP %s Latency quantiles (log-binned histogram).\n", name)
	p("# TYPE %s summary\n", name)
	if h.Count() > 0 {
		for _, q := range []float64{0.5, 0.9, 0.99} {
			p("%s{quantile=\"%g\"} %.6g\n", name, q, h.Quantile(q))
		}
	}
	p("%s_sum %.6g\n", name, h.Sum())
	p("%s_count %d\n", name, h.Count())
}

// writeJSON writes v with the given status.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// errorBody is the uniform error response.
type errorBody struct {
	Error string `json:"error"`
}

// writeRequestError maps request validation failures onto status codes:
// 404 for an unknown experiment, 400 for a bad request, 500 otherwise.
// The coordinator validates before dispatching with the same mapping, so
// a garbage request gets a worker's answer without tying up a shard.
func writeRequestError(w http.ResponseWriter, err error) {
	var bad *badRequestError
	var unknown *unknownExpError
	switch {
	case errors.As(err, &unknown):
		writeJSON(w, http.StatusNotFound, errorBody{Error: err.Error()})
	case errors.As(err, &bad):
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
	default:
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
	}
}

// writeSubmitError adds the queue's refusals to writeRequestError: 429
// with Retry-After when the queue is full, 503 while draining.
func (s *Server) writeSubmitError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, errQueueFull):
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		writeJSON(w, http.StatusTooManyRequests, errorBody{Error: err.Error()})
	case errors.Is(err, errDraining):
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
	default:
		writeRequestError(w, err)
	}
}

// Health is the /healthz body: liveness plus the load signals a
// coordinator folds into its cross-shard Retry-After estimate. Depth and
// capacity describe the line of requests waiting for a run slot;
// MeanJobSeconds is 0 until a job has completed.
type Health struct {
	Status         string  `json:"status"` // "ok", or "draining" (with 503)
	QueueDepth     int     `json:"queue_depth"`
	QueueCapacity  int     `json:"queue_capacity"`
	Running        int     `json:"running"`
	Workers        int     `json:"workers"`
	MeanJobSeconds float64 `json:"mean_job_seconds"`
}

func (s *Server) health() Health {
	h := Health{
		Status:        "ok",
		QueueDepth:    int(s.queueDepth.Value()),
		QueueCapacity: s.cfg.Queue,
		Running:       int(s.running.Value()),
		Workers:       s.cfg.Workers,
	}
	if mean := s.jobLat.Mean(); !math.IsNaN(mean) && mean > 0 {
		h.MeanJobSeconds = mean
	}
	if s.Draining() {
		h.Status = "draining"
	}
	return h
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := s.health()
	if h.Status != "ok" {
		writeJSON(w, http.StatusServiceUnavailable, h)
		return
	}
	writeJSON(w, http.StatusOK, h)
}

// handleExperiments serves the experiment catalog. It is a property of the
// build, so a coordinator answers it locally even with every shard down.
func handleExperiments(w http.ResponseWriter, r *http.Request) {
	type expInfo struct {
		ID    string `json:"id"`
		Title string `json:"title"`
		Desc  string `json:"desc"`
		Bench string `json:"bench"`
	}
	var out []expInfo
	for _, e := range exp.All() {
		out = append(out, expInfo{ID: e.ID, Title: e.Title, Desc: e.Desc, Bench: e.Bench})
	}
	writeJSON(w, http.StatusOK, out)
}

// handleRun runs one sweep request and answers with its result. The run
// is the handler's own: it waits for a slot, runs under the request's
// context (capped by the request timeout and cut by Drain's deadline), so
// a client that disconnects cancels its sweep — unless a concurrent
// identical request shares it, in which case that request's own wait
// decides its fate. The job's end is counted before the response is
// written, so a client that reads /metrics afterwards sees its own job.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	req, err := decodeRequest(r.Body)
	if err != nil {
		s.writeSubmitError(w, err)
		return
	}
	e, opts, key, err := req.address(s.cfg.Version)
	if err != nil {
		s.writeSubmitError(w, err)
		return
	}
	id := "j" + strconv.FormatInt(s.nextID.Add(1), 10)
	ctx, cancel := context.WithTimeout(r.Context(), req.timeout(s.cfg.Timeout))
	defer cancel()
	stop := context.AfterFunc(s.baseCtx, cancel)
	defer stop()

	waiting, err := s.admit()
	if err != nil {
		s.writeSubmitError(w, err)
		return
	}
	defer s.inFlight.Done()
	if waiting {
		if err := s.awaitSlot(ctx); err != nil {
			end := jobFailed
			if errors.Is(err, errDraining) {
				end = jobRejected
			}
			s.jobsByEnd[end].Inc()
			writeJobError(w, id, end, err)
			return
		}
	}

	s.running.Add(1)
	start := time.Now()
	val, src, err := s.runJob(ctx, req, e, opts, key)
	elapsed := time.Since(start)
	s.running.Add(-1)
	<-s.slots
	s.jobLat.Observe(elapsed.Seconds())
	if err != nil {
		if ctx.Err() != nil && s.baseCtx.Err() != nil {
			// Cut loose by a shutdown, not failed on its own merits:
			// another shard can still serve it.
			err = fmt.Errorf("%w: %v", errDraining, err)
		}
		s.jobsByEnd[jobFailed].Inc()
		writeJobError(w, id, jobFailed, err)
		return
	}
	s.jobsByEnd[jobDone].Inc()
	w.Header().Set("X-Sweepd-Job", id)
	w.Header().Set("X-Sweepd-Source", src.String())
	w.Header().Set("X-Sweepd-Elapsed-Ms", strconv.FormatFloat(float64(elapsed)/float64(time.Millisecond), 'f', 3, 64))
	writeResult(w, r, val)
}

// writeJobError answers for a job that ended without a result: 503 when
// a drain stopped it, else 500. A panicked run is marked non-retryable:
// the same request would panic again anywhere.
func writeJobError(w http.ResponseWriter, id string, end jobEnd, err error) {
	code := http.StatusInternalServerError
	if errors.Is(err, errDraining) {
		code = http.StatusServiceUnavailable
	}
	if errors.Is(err, errRunPanicked) || errors.Is(err, runner.ErrPanicked) {
		w.Header().Set(retryableHeader, "false")
	}
	writeJSON(w, code, errorBody{Error: fmt.Sprintf("job %s %s: %v", id, end, err)})
}

// writeResult serves stored result bytes in the requested format. JSON is
// the stored bytes verbatim — the byte-identity the cache guarantees is
// exactly what goes on the wire.
func writeResult(w http.ResponseWriter, r *http.Request, raw []byte) {
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		w.Header().Set("Content-Type", "application/json")
		w.Write(raw)
	case "csv", "text":
		res, err := decodeResult(raw)
		if err != nil {
			writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if format == "csv" {
			res.CSV(w)
		} else {
			fmt.Fprint(w, res.Text())
		}
	default:
		writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("unknown format %q (json|csv|text)", format)})
	}
}

// handleMetrics renders Prometheus text exposition from internal/stats
// primitives: request/job counters, queue and flight gauges, cache
// effectiveness, and latency quantiles.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	p := func(format string, args ...any) { fmt.Fprintf(w, format, args...) }

	p("# HELP sweepd_up Whether the service is accepting work (0 while draining).\n")
	p("# TYPE sweepd_up gauge\n")
	up := 1
	if s.Draining() {
		up = 0
	}
	p("sweepd_up %d\n", up)
	p("# TYPE sweepd_uptime_seconds counter\n")
	p("sweepd_uptime_seconds %.3f\n", time.Since(s.started).Seconds())

	s.reqs.writeRequests(p, "sweepd_requests_total")

	p("# HELP sweepd_jobs_total Jobs by terminal state.\n")
	p("# TYPE sweepd_jobs_total counter\n")
	for _, st := range []jobEnd{jobDone, jobFailed, jobRejected} {
		p("sweepd_jobs_total{state=%q} %d\n", string(st), s.jobsByEnd[st].Value())
	}
	p("# TYPE sweepd_queue_depth gauge\n")
	p("sweepd_queue_depth %d\n", s.queueDepth.Value())
	p("# TYPE sweepd_queue_capacity gauge\n")
	p("sweepd_queue_capacity %d\n", s.cfg.Queue)
	p("# TYPE sweepd_running_jobs gauge\n")
	p("sweepd_running_jobs %d\n", s.running.Value())
	p("# TYPE sweepd_workers gauge\n")
	p("sweepd_workers %d\n", s.cfg.Workers)
	p("# TYPE sweepd_gomaxprocs gauge\n")
	p("sweepd_gomaxprocs %d\n", runtime.GOMAXPROCS(0))

	p("# HELP sweepd_sim_events_total Simulation events executed by fresh (uncached) runs.\n")
	p("# TYPE sweepd_sim_events_total counter\n")
	p("sweepd_sim_events_total %d\n", s.simEvents.Value())

	p("# HELP sweepd_job_snapshots_total Mid-run job snapshots persisted to the snapshot dir.\n")
	p("# TYPE sweepd_job_snapshots_total counter\n")
	p("sweepd_job_snapshots_total %d\n", s.snapsTaken.Value())
	p("# TYPE sweepd_job_resumes_total counter\n")
	p("sweepd_job_resumes_total %d\n", s.jobResumes.Value())
	p("# TYPE sweepd_job_snapshot_errors_total counter\n")
	p("sweepd_job_snapshot_errors_total %d\n", s.snapErrors.Value())
	p("# TYPE sweepd_job_cold_retries_total counter\n")
	p("sweepd_job_cold_retries_total %d\n", s.coldRetries.Value())

	cs := s.cache.Stats()
	p("# HELP sweepd_cache_hits_total Requests served from the result cache.\n")
	p("# TYPE sweepd_cache_hits_total counter\n")
	p("sweepd_cache_hits_total %d\n", cs.Hits)
	p("# TYPE sweepd_cache_misses_total counter\n")
	p("sweepd_cache_misses_total %d\n", cs.Misses)
	p("# TYPE sweepd_cache_shared_total counter\n")
	p("sweepd_cache_shared_total %d\n", cs.Shared)
	p("# TYPE sweepd_cache_evictions_total counter\n")
	p("sweepd_cache_evictions_total %d\n", cs.Evictions)
	p("# TYPE sweepd_cache_rejected_total counter\n")
	p("sweepd_cache_rejected_total %d\n", cs.Rejected)
	p("# TYPE sweepd_cache_entries gauge\n")
	p("sweepd_cache_entries %d\n", cs.Entries)
	p("# TYPE sweepd_cache_bytes gauge\n")
	p("sweepd_cache_bytes %d\n", cs.Bytes)
	p("# TYPE sweepd_cache_budget_bytes gauge\n")
	p("sweepd_cache_budget_bytes %d\n", cs.Budget)
	p("# HELP sweepd_cache_disk_hits_total Store lookups served by a digest-verified disk read (disk-backed stores only).\n")
	p("# TYPE sweepd_cache_disk_hits_total counter\n")
	p("sweepd_cache_disk_hits_total %d\n", cs.DiskHits)
	p("# HELP sweepd_cache_disk_corrupt_total Disk cache records rejected by verification instead of being served.\n")
	p("# TYPE sweepd_cache_disk_corrupt_total counter\n")
	p("sweepd_cache_disk_corrupt_total %d\n", cs.Corrupt)

	writeLatency(p, "sweepd_job_duration_seconds", s.jobLat)
	writeLatency(p, "sweepd_http_request_duration_seconds", s.reqs.lat)
}
