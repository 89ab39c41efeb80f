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
// SIGINT/SIGTERM drain gracefully: new requests get 503, waiting requests
// are rejected with 503, running jobs finish (up to -drain-grace; a run
// still going then is cancelled and answers 503), then the listener shuts
// down (and a -cache-dir log is synced closed).
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
// timeout: a synchronous /api/v1/run call legitimately stays open for
// minutes.
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
	cfg := service.Config{Workers: 2, Queue: 64, Timeout: 10 * time.Minute}
	ccfg := service.CoordinatorConfig{MaxAttempts: 5, RetryBase: 250 * time.Millisecond}
	var (
		addr, cacheDir, version, coordURL = ":8080", "", "", ""
		cacheMB                           = int64(256)
		drainGrace                        = 30 * time.Second
		coordinator                       bool
	)
	fs := flag.NewFlagSet("sweepd", flag.ContinueOnError)
	fs.StringVar(&addr, "addr", addr, "listen address")
	fs.IntVar(&cfg.Workers, "workers", cfg.Workers, "concurrent jobs (each fans its sweep across -jobs cores)")
	fs.IntVar(&cfg.JobsPerRun, "jobs", 0, "sweep worker pool per job (0 = all cores)")
	fs.IntVar(&cfg.Queue, "queue", cfg.Queue, "job queue capacity; a full queue answers 429 + Retry-After")
	fs.Int64Var(&cacheMB, "cache-mb", cacheMB, "result cache budget in MiB (0 disables caching)")
	fs.StringVar(&cacheDir, "cache-dir", "", "persist the result cache as an append-only sealed log in this directory; warm results survive restarts (replaces the in-memory store; -cache-mb becomes the log budget)")
	fs.DurationVar(&cfg.Timeout, "timeout", cfg.Timeout, "default and maximum per-job runtime")
	fs.DurationVar(&drainGrace, "drain-grace", drainGrace, "how long a shutdown signal waits for running jobs")
	fs.StringVar(&version, "version", "", "cache-key code version tag (default: VCS revision from build info, else \"dev\")")
	fs.StringVar(&cfg.SnapshotDir, "snapshot-dir", "", "persist mid-run snapshots of scenario jobs here; a restarted server resumes resubmitted jobs from the last boundary (empty = off)")
	fs.Int64Var(&cfg.SnapshotEvery, "snapshot-every", 0, "event cadence for scenario-job snapshots (0 = default 100000; needs -snapshot-dir or -coordinator-url)")

	// Cluster roles.
	fs.BoolVar(&coordinator, "coordinator", false, "serve as the cluster coordinator (requires -worker-urls; job flags above do not apply)")
	fs.Func("worker-urls", "comma-separated worker base URLs the coordinator shards across (order fixes shard names w0..wN)", func(v string) error {
		ccfg.Workers = nil
		for _, u := range strings.Split(v, ",") {
			if u = strings.TrimSpace(u); u != "" {
				ccfg.Workers = append(ccfg.Workers, u)
			}
		}
		return nil
	})
	fs.StringVar(&coordURL, "coordinator-url", "", "worker role: publish mid-run scenario snapshots to this coordinator, so a killed worker's job resumes on a peer from its last boundary")
	fs.IntVar(&ccfg.MaxAttempts, "dlq-attempts", ccfg.MaxAttempts, "coordinator: dead-letter retries before a failed point parks for manual requeue")
	fs.DurationVar(&ccfg.RetryBase, "retry-base", ccfg.RetryBase, "coordinator: first dead-letter backoff, doubling per attempt")
	if err := fs.Parse(args); err != nil {
		return err
	}
	logger := log.New(out, "sweepd: ", log.LstdFlags)

	if coordinator {
		if coordURL != "" {
			return fmt.Errorf("-coordinator and -coordinator-url are different roles; pick one")
		}
		if len(ccfg.Workers) == 0 {
			return fmt.Errorf("-coordinator requires -worker-urls")
		}
		ccfg.Version = resolveVersion(version)
		coord, err := service.NewCoordinator(ccfg)
		if err != nil {
			return err
		}
		defer coord.Close()
		return serve(addr, coord.Handler(), ready, func(a net.Addr) {
			logger.Printf("coordinating %d workers on %s (dlq-attempts=%d retry-base=%s)",
				len(ccfg.Workers), a, ccfg.MaxAttempts, ccfg.RetryBase)
		}, func(got os.Signal) {
			logger.Printf("received %s, shutting down", got)
		})
	}
	if len(ccfg.Workers) > 0 {
		return fmt.Errorf("-worker-urls only applies with -coordinator")
	}

	cfg.CacheBytes = cacheMB << 20
	if cacheMB == 0 {
		cfg.CacheBytes = -1 // Config treats 0 as "default"; negative disables
	}
	if cfg.SnapshotEvery > 0 && cfg.SnapshotDir == "" && coordURL == "" {
		return fmt.Errorf("-snapshot-every requires -snapshot-dir or -coordinator-url")
	}
	cfg.Version = resolveVersion(version)
	if cacheDir != "" {
		st, err := cache.NewDiskStore(cacheDir, cfg.CacheBytes)
		if err != nil {
			return fmt.Errorf("opening -cache-dir: %w", err)
		}
		cfg.CacheStore = st
	}
	var pub *snapshotPublisher
	if coordURL != "" {
		pub = newSnapshotPublisher(strings.TrimRight(coordURL, "/"))
		cfg.PublishSnapshot = pub.publish
	}
	srv := service.New(cfg)
	err := serve(addr, srv.Handler(), ready, func(a net.Addr) {
		logger.Printf("serving on %s (workers=%d queue=%d cache=%dMiB timeout=%s)",
			a, cfg.Workers, cfg.Queue, cacheMB, cfg.Timeout)
	}, func(got os.Signal) {
		logger.Printf("received %s, draining (grace %s)", got, drainGrace)
		drainCtx, cancel := context.WithTimeout(context.Background(), drainGrace)
		defer cancel()
		if err := srv.Drain(drainCtx); err != nil {
			logger.Printf("drain incomplete: %v (running jobs cancelled)", err)
		}
	})
	if err != nil {
		srv.Close()
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

// serve is the one serving sequence of both roles. It installs the
// shutdown-signal handler before listening, so a signal that lands once
// ready is announced winds the server down instead of killing the
// process; then it listens on addr, calls announce with the bound address,
// sends it to ready when non-nil, and serves h. A serve error returns at
// once. A signal calls stop, then shuts the listener down.
func serve(addr string, h http.Handler, ready chan<- string, announce func(net.Addr), stop func(os.Signal)) error {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	httpSrv := newHTTPServer(h)
	announce(ln.Addr())
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
		return err
	case got := <-sig:
		stop(got)
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return httpSrv.Shutdown(shutCtx)
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
