// Command sweepd serves the reproduction experiments (E1–E19) as a
// long-running HTTP service: sweep jobs over a bounded queue and worker
// pool, fronted by a content-addressed result cache so identical requests
// — the dominant pattern in parameter-sweep studies — simulate once and
// hit forever after. See README.md "Running as a service" for the
// endpoint reference, DESIGN.md §22 for the cache and backpressure model,
// and DESIGN.md §27 for the cluster topology.
//
// Usage:
//
//	sweepd -addr :8080                     # serve with defaults
//	sweepd -workers 4 -queue 128           # more concurrency, deeper queue
//	sweepd -cache-mb 512 -timeout 5m       # bigger cache, shorter job leash
//	sweepd -cache-dir /var/lib/sweepd      # cache survives restarts
//
//	curl -s localhost:8080/api/v1/run -d '{"exp":"E1","quick":true}'
//	curl -s localhost:8080/api/v1/jobs -d '{"exp":"E8"}'    # async
//	curl -s localhost:8080/metrics
//
// Cluster roles (README.md "Running a cluster"): N ordinary sweepd
// processes become shard workers, and one more process runs with
// -coordinator to front them — same API, requests rendezvous-hashed by
// cache key across live workers, failed points dead-lettered and retried:
//
//	sweepd -addr :8081 -cache-dir /data/w0 -coordinator-url http://localhost:8080 &
//	sweepd -addr :8082 -cache-dir /data/w1 -coordinator-url http://localhost:8080 &
//	sweepd -addr :8080 -coordinator -worker-urls http://localhost:8081,http://localhost:8082
//
// SIGINT/SIGTERM drain gracefully: submissions get 503, queued jobs are
// rejected, running jobs finish (up to -drain-grace), then the listener
// shuts down (and a -cache-dir log is synced closed).
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime/debug"
	"strings"
	"syscall"
	"time"

	"checkpointsim/internal/cache"
	"checkpointsim/internal/service"
)

// Listener deadlines, the same for both roles. A client that never
// finishes its request headers holds a connection for at most
// headerTimeout; a healthy client sends them in well under a second. A
// client that sends its headers and then stalls its body is cut off once
// readTimeout has passed since the request began. Bodies are capped at
// 1 MiB for a request and 64 MiB for a snapshot blob, and a worker's
// snapshot publisher gives up on its own after publishTimeout, so
// readTimeout must exceed that client timeout: the server never cuts off
// an upload its sender still considers alive. The deadline covers only
// reading the request; net/http clears it once the body is read, so a
// handler may run longer. Idle keep-alive connections close after
// idleTimeout, longer than the Go client's 90 s default so that the
// client side normally closes first. There is deliberately no write
// timeout: synchronous /api/v1/run calls and SSE job streams
// legitimately stay open for minutes.
const (
	headerTimeout = 5 * time.Second
	readTimeout   = 15 * time.Second
	idleTimeout   = 2 * time.Minute

	// publishTimeout bounds one snapshot upload to the coordinator.
	publishTimeout = 10 * time.Second
)

// newHTTPServer wraps h in a server with the listener deadlines.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: headerTimeout,
		ReadTimeout: readTimeout, IdleTimeout: idleTimeout}
}

func main() {
	if err := run(os.Args[1:], os.Stdout, nil); err != nil {
		fmt.Fprintln(os.Stderr, "sweepd:", err)
		os.Exit(1)
	}
}

// run starts the service and blocks until a shutdown signal. ready, when
// non-nil, receives the bound address once the listener is up (tests use
// it to avoid port races).
func run(args []string, out io.Writer, ready chan<- string) error {
	fs := flag.NewFlagSet("sweepd", flag.ContinueOnError)
	var (
		addr       = fs.String("addr", ":8080", "listen address")
		workers    = fs.Int("workers", 2, "concurrent jobs (each fans its sweep across -jobs cores)")
		jobsPerRun = fs.Int("jobs", 0, "sweep worker pool per job (0 = all cores)")
		queue      = fs.Int("queue", 64, "job queue capacity; a full queue answers 429 + Retry-After")
		cacheMB    = fs.Int64("cache-mb", 256, "result cache budget in MiB (0 disables caching)")
		cacheDir   = fs.String("cache-dir", "", "persist the result cache as an append-only sealed log in this directory; warm results survive restarts (replaces the in-memory store; -cache-mb becomes the log budget)")
		timeout    = fs.Duration("timeout", 10*time.Minute, "default and maximum per-job runtime")
		drainGrace = fs.Duration("drain-grace", 30*time.Second, "how long a shutdown signal waits for running jobs")
		version    = fs.String("version", "", "cache-key code version tag (default: VCS revision from build info, else \"dev\")")
		snapDir    = fs.String("snapshot-dir", "", "persist mid-run snapshots of scenario jobs here; a restarted server resumes resubmitted jobs from the last boundary (empty = off)")
		snapEvery  = fs.Int64("snapshot-every", 0, "event cadence for scenario-job snapshots (0 = default 100000; needs -snapshot-dir or -coordinator-url)")

		// Cluster roles.
		coordinator = fs.Bool("coordinator", false, "serve as the cluster coordinator (requires -worker-urls; job flags above do not apply)")
		workerURLs  = fs.String("worker-urls", "", "comma-separated worker base URLs the coordinator shards across (order fixes shard names w0..wN)")
		coordURL    = fs.String("coordinator-url", "", "worker role: publish mid-run scenario snapshots to this coordinator, so a killed worker's job resumes on a peer from its last boundary")
		dlqAttempts = fs.Int("dlq-attempts", 5, "coordinator: dead-letter retries before a failed point parks for manual requeue")
		retryBase   = fs.Duration("retry-base", 250*time.Millisecond, "coordinator: first dead-letter backoff, doubling per attempt")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *coordinator {
		if *coordURL != "" {
			return fmt.Errorf("-coordinator and -coordinator-url are different roles; pick one")
		}
		return runCoordinator(*addr, *workerURLs, resolveVersion(*version), *dlqAttempts, *retryBase, out, ready)
	}
	if *workerURLs != "" {
		return fmt.Errorf("-worker-urls only applies with -coordinator")
	}

	cacheBytes := *cacheMB << 20
	if *cacheMB == 0 {
		cacheBytes = -1 // Config treats 0 as "default"; negative disables
	}
	if *snapEvery > 0 && *snapDir == "" && *coordURL == "" {
		return fmt.Errorf("-snapshot-every requires -snapshot-dir or -coordinator-url")
	}
	cfg := service.Config{
		Queue:         *queue,
		Workers:       *workers,
		JobsPerRun:    *jobsPerRun,
		CacheBytes:    cacheBytes,
		Timeout:       *timeout,
		Version:       resolveVersion(*version),
		SnapshotDir:   *snapDir,
		SnapshotEvery: *snapEvery,
	}
	if *cacheDir != "" {
		st, err := cache.NewDiskStore(*cacheDir, cacheBytes)
		if err != nil {
			return fmt.Errorf("opening -cache-dir: %w", err)
		}
		cfg.CacheStore = st
	}
	var pub *snapshotPublisher
	if *coordURL != "" {
		pub = newSnapshotPublisher(strings.TrimRight(*coordURL, "/"))
		cfg.PublishSnapshot = pub.publish
	}
	srv := service.New(cfg)

	// Catch shutdown signals before listening: a signal that lands once
	// ready is announced must drain the server, not kill the process.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	httpSrv := newHTTPServer(srv.Handler())
	logger := log.New(out, "sweepd: ", log.LstdFlags)
	logger.Printf("serving on %s (workers=%d queue=%d cache=%dMiB timeout=%s)",
		ln.Addr(), *workers, *queue, *cacheMB, *timeout)
	if ready != nil {
		ready <- ln.Addr().String()
	}

	errc := make(chan error, 1)
	go func() {
		if err := httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()

	select {
	case err := <-errc:
		srv.Close()
		return err
	case got := <-sig:
		logger.Printf("received %s, draining (grace %s)", got, *drainGrace)
	}

	drainCtx, cancel := context.WithTimeout(context.Background(), *drainGrace)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		logger.Printf("drain incomplete: %v (running jobs cancelled)", err)
	}
	shutCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		return err
	}
	if pub != nil {
		pub.close()
	}
	cs := srv.CacheStats()
	// Close after the drain so a disk-backed store syncs its log: what was
	// cached this run is warm on the next start.
	srv.Close()
	logger.Printf("drained: cache %d entries / %d bytes, %d hits / %d misses / %d shared",
		cs.Entries, cs.Bytes, cs.Hits, cs.Misses, cs.Shared)
	return nil
}

// runCoordinator serves the coordinator role: no local simulation, just
// sharded proxying, the dead-letter queue, and snapshot blob shipping.
func runCoordinator(addr, workerURLs, version string, dlqAttempts int, retryBase time.Duration, out io.Writer, ready chan<- string) error {
	var urls []string
	for _, u := range strings.Split(workerURLs, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	if len(urls) == 0 {
		return fmt.Errorf("-coordinator requires -worker-urls")
	}
	coord, err := service.NewCoordinator(service.CoordinatorConfig{
		Workers:     urls,
		Version:     version,
		MaxAttempts: dlqAttempts,
		RetryBase:   retryBase,
	})
	if err != nil {
		return err
	}

	// As in run: the signal handler is in place before ready is announced.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		coord.Close()
		return err
	}
	httpSrv := newHTTPServer(coord.Handler())
	logger := log.New(out, "sweepd: ", log.LstdFlags)
	logger.Printf("coordinating %d workers on %s (dlq-attempts=%d retry-base=%s)",
		len(urls), ln.Addr(), dlqAttempts, retryBase)
	if ready != nil {
		ready <- ln.Addr().String()
	}

	errc := make(chan error, 1)
	go func() {
		if err := httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()

	select {
	case err := <-errc:
		coord.Close()
		return err
	case got := <-sig:
		logger.Printf("received %s, shutting down", got)
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		coord.Close()
		return err
	}
	coord.Close()
	return nil
}

// snapshotPublisher ships scenario snapshots to the coordinator off the
// job goroutine: the OnSnapshot hook must not stall the simulation on a
// slow network, so blobs go through a small buffer and are dropped when
// it backs up — a snapshot is a recovery hint, and a fresher one is
// always coming.
type snapshotPublisher struct {
	url    string
	client *http.Client
	ch     chan publishedBlob
	done   chan struct{}
}

type publishedBlob struct {
	key  string
	blob []byte
}

func newSnapshotPublisher(url string) *snapshotPublisher {
	p := &snapshotPublisher{
		url:    url,
		client: &http.Client{Timeout: publishTimeout},
		ch:     make(chan publishedBlob, 8),
		done:   make(chan struct{}),
	}
	go p.loop()
	return p
}

func (p *snapshotPublisher) publish(key string, blob []byte) {
	// The engine reuses its snapshot buffer; copy before leaving the hook.
	sb := publishedBlob{key: key, blob: append([]byte(nil), blob...)}
	select {
	case p.ch <- sb:
	default: // backed up: drop this one, the next boundary replaces it
	}
}

func (p *snapshotPublisher) loop() {
	defer close(p.done)
	for sb := range p.ch {
		resp, err := p.client.Post(p.url+"/api/v1/snapshots/"+sb.key,
			"application/octet-stream", bytes.NewReader(sb.blob))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}
}

func (p *snapshotPublisher) close() {
	close(p.ch)
	<-p.done
}

// resolveVersion picks the cache-key code-version tag: an explicit flag
// wins; otherwise the VCS revision baked into the build (so a rebuild from
// different sources invalidates cached results); "dev" as a last resort.
func resolveVersion(flagVal string) string {
	if flagVal != "" {
		return flagVal
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range info.Settings {
			if kv.Key == "vcs.revision" {
				return kv.Value
			}
		}
	}
	return "dev"
}
