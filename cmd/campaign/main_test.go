package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"checkpointsim/internal/service"
)

// runCmd invokes the CLI entry point and returns its stdout.
func runCmd(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var sb strings.Builder
	err := run(args, &sb)
	return sb.String(), err
}

// The campaign's core CLI contract: for a fixed seed and point budget,
// stdout is byte-identical at every -j value.
func TestCampaignDeterministicAcrossJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full scenario simulations")
	}
	args := []string{"-seed", "5", "-points", "6"}
	serial, err := runCmd(t, append(args, "-j", "1")...)
	if err != nil {
		t.Fatalf("-j 1: %v\n%s", err, serial)
	}
	parallel, err := runCmd(t, append(args, "-j", "8")...)
	if err != nil {
		t.Fatalf("-j 8: %v\n%s", err, parallel)
	}
	if serial != parallel {
		t.Fatalf("-j 1 and -j 8 output differ:\n--- j1 ---\n%s--- j8 ---\n%s", serial, parallel)
	}
	if !strings.Contains(serial, "campaign: 6 points, 6 ok, 0 failed") {
		t.Errorf("missing clean tail line:\n%s", serial)
	}
}

// A spec printed in a campaign line reproduces the same point: same cache
// key, same makespan.
func TestReproMatchesCampaignPoint(t *testing.T) {
	out, err := runCmd(t, "-seed", "9", "-points", "1")
	if err != nil {
		t.Fatalf("campaign: %v\n%s", err, out)
	}
	var pointLine string
	for _, l := range strings.Split(out, "\n") {
		if strings.Contains(l, "ok   campaign:") {
			pointLine = strings.TrimSpace(l)
			break
		}
	}
	if pointLine == "" {
		t.Fatalf("no ok point line in:\n%s", out)
	}
	fields := strings.Fields(pointLine) // idx ok spec key=... makespan_ns=...
	spec := fields[2]
	reproOut, err := runCmd(t, "-repro", spec)
	if err != nil {
		t.Fatalf("repro %q: %v\n%s", spec, err, reproOut)
	}
	// The repro's first line is the campaign line without the index column.
	wantLine := strings.Join(fields[1:], " ")
	gotLine := strings.Join(strings.Fields(strings.SplitN(reproOut, "\n", 2)[0]), " ")
	if gotLine != wantLine {
		t.Errorf("repro line %q != campaign line %q", gotLine, wantLine)
	}
	if !strings.Contains(reproOut, "Campaign "+spec) {
		t.Errorf("repro output missing the point's table:\n%s", reproOut)
	}
}

// With -server, every point round-trips through a live sweepd: fresh run,
// cache hit, and local bytes must all agree. The service version must
// match -version for the printed keys to be the server's keys.
func TestCampaignAgainstServer(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full scenario simulations")
	}
	out, err := runCmd(t, "-seed", "3", "-points", "3", "-server", startServer(t),
		"-workloads", "sweep,cg", "-scales", "8")
	if err != nil {
		t.Fatalf("campaign vs server: %v\n%s", err, out)
	}
	if !strings.Contains(out, "campaign: 3 points, 3 ok, 0 failed") {
		t.Errorf("server-verified campaign not clean:\n%s", out)
	}
}

// startServer brings up a live sweepd service whose keys match the
// campaign's default -version.
func startServer(t *testing.T) string {
	t.Helper()
	s := service.New(service.Config{Version: "dev", Timeout: time.Minute})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return ts.URL
}

// A 429 with an integer Retry-After slows the point instead of failing
// it: the client sleeps the hint and resubmits, and the back-off is
// counted in the summary file only, so stdout stays reproducible.
func TestCampaignHonorsRetryAfter(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full scenario simulations")
	}
	backend := startServer(t)
	var throttled atomic.Bool
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !throttled.Swap(true) {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		resp, err := http.Post(backend+r.URL.Path, r.Header.Get("Content-Type"), r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		for _, h := range []string{"Content-Type", "X-Sweepd-Source"} {
			if v := resp.Header.Get(h); v != "" {
				w.Header().Set(h, v)
			}
		}
		w.WriteHeader(resp.StatusCode)
		io.Copy(w, resp.Body)
	}))
	defer proxy.Close()

	path := filepath.Join(t.TempDir(), "summary.txt")
	out, err := runCmd(t, "-seed", "7", "-points", "1", "-j", "1", "-server", proxy.URL,
		"-workloads", "sweep", "-scales", "8", "-summary", path)
	if err != nil {
		t.Fatalf("campaign under throttling: %v\n%s", err, out)
	}
	if !strings.Contains(out, "campaign: 1 points, 1 ok, 0 failed") {
		t.Errorf("throttled point did not verify:\n%s", out)
	}
	if strings.Contains(out, "retries") {
		t.Errorf("retry count leaked into stdout:\n%s", out)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "retries-429: 1\n") {
		t.Errorf("summary does not count the one 429:\n%s", data)
	}
}

// A server that answers 200 with bytes that differ from the local run
// fails the point: the campaign is a correctness harness first.
func TestCampaignDetectsWrongServerBytes(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Sweepd-Source", "hit")
		w.Write([]byte(`{"not":"a result"}`))
	}))
	defer ts.Close()
	out, err := runCmd(t, "-seed", "7", "-points", "1", "-server", ts.URL,
		"-workloads", "sweep", "-scales", "8")
	if err == nil {
		t.Fatalf("campaign accepted wrong server bytes:\n%s", out)
	}
	if !strings.Contains(out, "FAIL campaign:") || !strings.Contains(out, "local result differs from server result") {
		t.Errorf("no byte-mismatch FAIL line in:\n%s", out)
	}
	if !strings.Contains(out, "campaign: 1 points, 0 ok, 1 failed") {
		t.Errorf("mismatched point not counted as failed:\n%s", out)
	}
}

// -duration mode runs whole chunks until the clock is spent and still
// reports a clean tail.
func TestDurationMode(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full scenario simulations")
	}
	out, err := runCmd(t, "-seed", "2", "-duration", "1ms",
		"-workloads", "sweep", "-scales", "8",
		"-protocols", "none,coordinated", "-failure-laws", "none",
		"-storage-tiers", "none", "-noise", "none")
	if err != nil {
		t.Fatalf("duration campaign: %v\n%s", err, out)
	}
	if n := strings.Count(out, "ok   campaign:"); n < chunkSize {
		t.Errorf("duration mode ran %d points, want at least one chunk (%d)", n, chunkSize)
	}
	if !strings.Contains(out, " 0 failed") {
		t.Errorf("duration campaign not clean:\n%s", out)
	}
}

func TestSummaryFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "summary.txt")
	out, err := runCmd(t, "-seed", "9", "-points", "1", "-summary", path)
	if err != nil {
		t.Fatalf("campaign: %v\n%s", err, out)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := string(data)
	for _, want := range []string{"campaign: seed=9", "ok   campaign:", "wall-clock:"} {
		if !strings.Contains(sum, want) {
			t.Errorf("summary missing %q:\n%s", want, sum)
		}
	}
}

// Malformed invocations fail up front with messages naming the problem.
func TestBadConfig(t *testing.T) {
	cases := []struct {
		name   string
		args   []string
		errHas string
	}{
		{"no budget", []string{}, "need a budget"},
		{"bad jobs", []string{"-points", "1", "-j", "0"}, "-j must be"},
		{"bad net", []string{"-points", "1", "-net", "token-ring"}, "unknown network preset"},
		{"unknown workload", []string{"-points", "1", "-workloads", "quicksort"}, "unknown workload"},
		{"bad scale entry", []string{"-points", "1", "-scales", "eight"}, "bad -scales entry"},
		{"oversized scale", []string{"-points", "1", "-scales", "4096"}, "bad scale"},
		{"contradictory axes", []string{"-points", "1", "-protocols", "none", "-failure-laws", "exp"},
			"need a checkpoint protocol"},
		{"bad repro spec", []string{"-repro", "campaign:sweep/p8"}, "no @seed suffix"},
		{"repro unknown protocol", []string{"-repro", "campaign:sweep/p8/raft/none/none/none@1"},
			"unknown protocol"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out, err := runCmd(t, tc.args...)
			if err == nil {
				t.Fatalf("accepted %v:\n%s", tc.args, out)
			}
			if !strings.Contains(err.Error(), tc.errHas) {
				t.Errorf("error %q does not mention %q", err, tc.errHas)
			}
		})
	}
}
