package main

import (
	"bytes"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"
)

// End-to-end through main's run(): bind an ephemeral port, serve a sweep
// twice (second must be a cache hit with identical bytes), scrape
// /metrics, then SIGTERM and expect a clean drain.
func TestRunServesAndDrains(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a server and runs a quick experiment")
	}
	ready := make(chan string, 1)
	var out bytes.Buffer
	errc := make(chan error, 1)
	go func() {
		errc <- run([]string{"-addr", "127.0.0.1:0", "-workers", "1", "-version", "test"}, &out, ready)
	}()
	var base string
	select {
	case addr := <-ready:
		base = "http://" + addr
	case err := <-errc:
		t.Fatalf("server exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server never became ready")
	}

	post := func() (string, []byte) {
		resp, err := http.Post(base+"/api/v1/run", "application/json",
			strings.NewReader(`{"exp":"E1","quick":true}`))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("run status %d: %s", resp.StatusCode, body)
		}
		return resp.Header.Get("X-Sweepd-Source"), body
	}
	src1, body1 := post()
	src2, body2 := post()
	if src1 != "computed" || src2 != "hit" {
		t.Errorf("sources = %q, %q; want computed then hit", src1, src2)
	}
	if !bytes.Equal(body1, body2) {
		t.Error("cached response bytes differ from fresh run")
	}

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"sweepd_cache_hits_total 1", "sweepd_cache_misses_total 1", "sweepd_up 1"} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("run returned %v after SIGTERM", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("server did not drain after SIGTERM")
	}
	if !strings.Contains(out.String(), "drained") {
		t.Errorf("drain summary missing from log:\n%s", out.String())
	}
}

func TestRunBadFlags(t *testing.T) {
	if err := run([]string{"-addr"}, io.Discard, nil); err == nil {
		t.Error("dangling -addr accepted")
	}
	if err := run([]string{"-addr", "256.0.0.1:bad"}, io.Discard, nil); err == nil {
		t.Error("unlistenable address accepted")
	}
}

func TestResolveVersion(t *testing.T) {
	if got := resolveVersion("pinned"); got != "pinned" {
		t.Errorf("explicit version ignored: %q", got)
	}
	if got := resolveVersion(""); got == "" {
		t.Error("empty resolved version")
	}
}

// startRun launches run() with the given args and returns its base URL
// and error channel. Every server started this way shares the process's
// signal handler, so one SIGTERM at the end of a test drains them all.
func startRun(t *testing.T, args ...string) (string, chan error) {
	t.Helper()
	ready := make(chan string, 1)
	errc := make(chan error, 1)
	go func() { errc <- run(args, io.Discard, ready) }()
	select {
	case addr := <-ready:
		return "http://" + addr, errc
	case err := <-errc:
		t.Fatalf("server exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server never became ready")
	}
	return "", nil
}

// drainAll SIGTERMs the process and waits for every run() to exit clean.
func drainAll(t *testing.T, errcs ...chan error) {
	t.Helper()
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	for i, errc := range errcs {
		select {
		case err := <-errc:
			if err != nil {
				t.Errorf("server %d returned %v after SIGTERM", i, err)
			}
		case <-time.After(15 * time.Second):
			t.Fatalf("server %d did not drain after SIGTERM", i)
		}
	}
}

// TestSIGTERMRightAfterReady: a SIGTERM sent the instant a server reports
// ready must drain it, in both roles, rather than kill the process — the
// signal handler is registered before the listener is announced.
func TestSIGTERMRightAfterReady(t *testing.T) {
	for i := 0; i < 50; i++ {
		args := []string{"-addr", "127.0.0.1:0", "-workers", "1", "-version", "test"}
		if i%2 == 1 {
			args = []string{"-addr", "127.0.0.1:0", "-coordinator",
				"-worker-urls", "http://127.0.0.1:1", "-version", "test"}
		}
		_, errc := startRun(t, args...)
		drainAll(t, errc)
	}
}

// TestRunDiskCacheSurvivesRestart drives the -cache-dir flag end to end:
// a result computed before SIGTERM is served byte-identical as a disk
// hit by a freshly started process on the same directory.
func TestRunDiskCacheSurvivesRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("starts servers and runs a quick experiment")
	}
	dir := t.TempDir()
	const reqBody = `{"exp":"E1","quick":true}`
	post := func(base string) (string, []byte) {
		resp, err := http.Post(base+"/api/v1/run", "application/json", strings.NewReader(reqBody))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("run status %d: %s", resp.StatusCode, body)
		}
		return resp.Header.Get("X-Sweepd-Source"), body
	}

	base, errc := startRun(t, "-addr", "127.0.0.1:0", "-workers", "1",
		"-version", "test", "-cache-dir", dir)
	src1, body1 := post(base)
	if src1 != "computed" {
		t.Errorf("first run source = %q, want computed", src1)
	}
	drainAll(t, errc)

	base, errc = startRun(t, "-addr", "127.0.0.1:0", "-workers", "1",
		"-version", "test", "-cache-dir", dir)
	src2, body2 := post(base)
	if src2 != "hit" {
		t.Errorf("post-restart source = %q, want hit", src2)
	}
	if !bytes.Equal(body1, body2) {
		t.Error("restart broke byte identity")
	}
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(metrics), "sweepd_cache_disk_hits_total 1") {
		t.Error("metrics missing sweepd_cache_disk_hits_total 1")
	}
	drainAll(t, errc)
}

// TestRunCluster stands up two workers and a coordinator through main's
// run() — the exact flag wiring the CI cluster-smoke job uses — and
// checks routed runs, sticky cache hits, and the cluster endpoints.
func TestRunCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("starts three servers and runs a quick experiment")
	}
	w0, errc0 := startRun(t, "-addr", "127.0.0.1:0", "-workers", "1", "-version", "test")
	w1, errc1 := startRun(t, "-addr", "127.0.0.1:0", "-workers", "1", "-version", "test")
	coord, errcC := startRun(t, "-addr", "127.0.0.1:0", "-coordinator",
		"-worker-urls", w0+","+w1, "-version", "test")

	post := func() (*http.Response, []byte) {
		resp, err := http.Post(coord+"/api/v1/run", "application/json",
			strings.NewReader(`{"exp":"E1","quick":true}`))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp, body
	}
	resp, body1 := post()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run via coordinator: status %d: %s", resp.StatusCode, body1)
	}
	shard := resp.Header.Get("X-Sweepd-Worker")
	if shard != "w0" && shard != "w1" {
		t.Errorf("X-Sweepd-Worker = %q, want w0 or w1", shard)
	}
	resp, body2 := post()
	if src := resp.Header.Get("X-Sweepd-Source"); src != "hit" {
		t.Errorf("repeat source = %q, want hit (sticky shard routing)", src)
	}
	if got := resp.Header.Get("X-Sweepd-Worker"); got != shard {
		t.Errorf("repeat routed to %q, first run to %q", got, shard)
	}
	if !bytes.Equal(body1, body2) {
		t.Error("cache hit bytes differ from fresh run")
	}

	resp, err := http.Get(coord + "/api/v1/workers")
	if err != nil {
		t.Fatal(err)
	}
	workers, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{`"w0"`, `"w1"`, `"alive": true`} {
		if !strings.Contains(string(workers), want) {
			t.Errorf("/api/v1/workers missing %s:\n%s", want, workers)
		}
	}
	resp, err = http.Get(coord + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"sweepd_coord_up 1", "sweepd_coord_workers_alive 2", "sweepd_coord_dlq_entered_total 0"} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("coordinator metrics missing %q", want)
		}
	}

	drainAll(t, errc0, errc1, errcC)
}

// TestRunRoleFlagValidation: contradictory or incomplete role flags fail
// fast instead of serving a half-configured cluster.
func TestRunRoleFlagValidation(t *testing.T) {
	cases := [][]string{
		{"-coordinator"},                                           // no workers
		{"-coordinator", "-worker-urls", " , "},                    // empty list
		{"-coordinator", "-coordinator-url", "http://localhost:1"}, // both roles
		{"-worker-urls", "http://localhost:1"},                     // worker list without -coordinator
		{"-snapshot-every", "100"},                                 // cadence with nowhere to persist
	}
	for _, args := range cases {
		if err := run(args, io.Discard, nil); err == nil {
			t.Errorf("args %v accepted, want error", args)
		}
	}
}

// The snapshot publisher ships blobs to the coordinator off the job
// goroutine, copying the buffer before the engine reuses it.
func TestSnapshotPublisherShipsBlobs(t *testing.T) {
	type shipped struct {
		key  string
		body []byte
	}
	got := make(chan shipped, 8)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || !strings.HasPrefix(r.URL.Path, "/api/v1/snapshots/") {
			t.Errorf("unexpected publish request: %s %s", r.Method, r.URL.Path)
		}
		body, _ := io.ReadAll(r.Body)
		got <- shipped{key: strings.TrimPrefix(r.URL.Path, "/api/v1/snapshots/"), body: body}
		w.WriteHeader(http.StatusNoContent)
	}))
	defer ts.Close()

	p := newSnapshotPublisher(ts.URL)
	blob := []byte("snapshot-bytes")
	p.publish("abc123", blob)
	blob[0] = 'X' // the engine reuses its buffer; the publisher must have copied
	p.close()     // waits for the loop to drain

	select {
	case s := <-got:
		if s.key != "abc123" {
			t.Errorf("published key = %q, want abc123", s.key)
		}
		if string(s.body) != "snapshot-bytes" {
			t.Errorf("published body = %q, want the pre-mutation copy", s.body)
		}
	default:
		t.Fatal("no blob arrived at the coordinator endpoint")
	}
}

// A client that sends only part of its request headers is disconnected
// once headerTimeout passes, instead of holding the connection forever.
func TestPartialHeaderConnectionClosed(t *testing.T) {
	if testing.Short() {
		t.Skip("waits out the header deadline")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := newHTTPServer(http.NotFoundHandler())
	go srv.Serve(ln)
	defer srv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "POST /api/v1/run HTTP/1.1\r\nHost: sweepd\r\n"); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(headerTimeout + 5*time.Second))
	_, err = io.ReadAll(conn)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("connection with an unfinished header still open after %v", headerTimeout+5*time.Second)
	}
}
