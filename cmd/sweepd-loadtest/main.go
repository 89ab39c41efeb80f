// Command sweepd-loadtest drives a sweepd cluster (or a single sweepd)
// with a seeded schedule of campaign scenario points and verifies every
// response against a local run — a load generator that doubles as an
// end-to-end correctness harness, following cmd/campaign's double-run
// pattern: each point is POSTed twice, the second response must be a
// cache hit, and both bodies must be byte-identical to the bytes a local
// Scenario.Run encodes. Throughput and latency percentiles come from the
// client's clock, so the tool reports what a campaign would actually
// experience through the coordinator, proxy hop included.
//
// Usage:
//
//	sweepd-loadtest -url http://localhost:8080                 # defaults: 16 points
//	sweepd-loadtest -url http://localhost:8080 -points 200 -c 8
//	sweepd-loadtest -url http://localhost:8080 -summary load.json
//
// The point schedule is a pure function of -seed, identical to the one
// cmd/campaign draws, so a loadtest and a campaign with the same seed
// sweep the same points — pre-seeding one warms the other. 429 responses
// are honored: the client sleeps the advertised integer Retry-After and
// retries, so a bounded queue slows the test instead of failing it.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"checkpointsim/internal/exp"
	"checkpointsim/internal/runner"
	"checkpointsim/internal/service"
	"checkpointsim/internal/stats"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sweepd-loadtest:", err)
		os.Exit(1)
	}
}

// maxRetries bounds how often one request re-submits after a 429 before
// the point counts as failed.
const maxRetries = 20

// summary is the machine-readable report -summary writes.
type summary struct {
	URL           string  `json:"url"`
	Seed          uint64  `json:"seed"`
	Points        int     `json:"points"`
	Requests      int     `json:"requests"`
	Failures      int     `json:"failures"`
	Retries429    int64   `json:"retries_429"`
	WallSeconds   float64 `json:"wall_seconds"`
	ThroughputRPS float64 `json:"throughput_rps"`
	P50Ms         float64 `json:"p50_ms"`
	P90Ms         float64 `json:"p90_ms"`
	P99Ms         float64 `json:"p99_ms"`
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("sweepd-loadtest", flag.ContinueOnError)
	var (
		url         = fs.String("url", "", "base URL of the coordinator or sweepd to load (required)")
		points      = fs.Int("points", 16, "scenario points in the schedule (each is requested twice)")
		seed        = fs.Uint64("seed", 42, "schedule seed (same schedule as campaign -seed)")
		concurrency = fs.Int("c", 4, "concurrent in-flight requests")
		localJobs   = fs.Int("j", runtime.NumCPU(), "worker pool for the local reference runs")
		timeout     = fs.Duration("timeout", 5*time.Minute, "per-request client timeout")
		summaryPath = fs.String("summary", "", "write a JSON summary here (throughput, percentiles, failures)")
		workloads   = fs.String("workloads", "", "workload axis override, comma separated (as in campaign)")
		scales      = fs.String("scales", "", "scale (ranks) axis override, comma separated (as in campaign)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *url == "" {
		return fmt.Errorf("-url is required")
	}
	if *points < 1 {
		return fmt.Errorf("-points must be at least 1")
	}
	if *concurrency < 1 {
		return fmt.Errorf("-c must be at least 1")
	}
	base := strings.TrimRight(*url, "/")

	space := exp.DefaultCampaignSpace()
	if *workloads != "" {
		space.Workloads = splitCSV(*workloads)
	}
	if *scales != "" {
		space.Scales = nil
		for _, p := range splitCSV(*scales) {
			n, err := strconv.Atoi(p)
			if err != nil {
				return fmt.Errorf("bad -scales entry %q: %v", p, err)
			}
			space.Scales = append(space.Scales, n)
		}
	}
	schedule, err := space.Schedule(*seed, *points)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "loadtest: %d points (seed %d) × 2 requests against %s\n",
		len(schedule), *seed, base)

	// Local reference bytes first — the ground truth every response must
	// match. Computed across cores, off the measurement clock.
	refs, err := runner.Map(*localJobs, schedule, func(i int, sc exp.Scenario) ([]byte, error) {
		tables, err := sc.Run(exp.DefaultOptions())
		if err != nil {
			return nil, fmt.Errorf("local run %s: %w", sc.ID(), err)
		}
		return service.EncodeScenarioResult(sc, tables)
	})
	if err != nil {
		return err
	}

	client := &http.Client{Timeout: *timeout}
	lat := stats.NewLatencyHist(1e-6, 3600, 240)
	var retries429 stats.Counter

	type verdict struct{ fails []string }
	start := time.Now()
	results, err := runner.Map(*concurrency, schedule, func(i int, sc exp.Scenario) (verdict, error) {
		var v verdict
		body, err := json.Marshal(service.SweepRequest{Scenario: &sc})
		if err != nil {
			return v, err
		}
		for pass, wantSrc := range []string{"", "hit"} {
			code, src, got, err := post(client, base+"/api/v1/run", body, &retries429, lat.Observe)
			switch {
			case err != nil:
				v.fails = append(v.fails, fmt.Sprintf("FAIL %s pass %d: %v", sc.ID(), pass+1, err))
			case code != http.StatusOK:
				v.fails = append(v.fails, fmt.Sprintf("FAIL %s pass %d: status %d: %s", sc.ID(), pass+1, code, strings.TrimSpace(string(got))))
			case !bytes.Equal(got, refs[i]):
				v.fails = append(v.fails, fmt.Sprintf("FAIL %s pass %d: response differs from local run", sc.ID(), pass+1))
			case wantSrc != "" && src != wantSrc:
				v.fails = append(v.fails, fmt.Sprintf("FAIL %s pass %d: source %q, want %q", sc.ID(), pass+1, src, wantSrc))
			}
		}
		return v, nil
	})
	if err != nil {
		return err
	}
	wall := time.Since(start)

	failures := 0
	for _, v := range results {
		for _, line := range v.fails {
			failures++
			fmt.Fprintln(out, line)
		}
	}

	requests := 2 * len(schedule)
	rps := float64(requests) / wall.Seconds()
	p50, p90, p99 := lat.Quantile(0.5), lat.Quantile(0.9), lat.Quantile(0.99)
	fmt.Fprintf(out, "loadtest: %d requests in %.2fs (%.1f req/s), %d retried on 429\n",
		requests, wall.Seconds(), rps, retries429.Value())
	fmt.Fprintf(out, "latency: p50=%.1fms p90=%.1fms p99=%.1fms\n",
		p50*1e3, p90*1e3, p99*1e3)
	if *summaryPath != "" {
		s := summary{
			URL: base, Seed: *seed, Points: len(schedule), Requests: requests,
			Failures: failures, Retries429: retries429.Value(),
			WallSeconds: wall.Seconds(), ThroughputRPS: rps,
			P50Ms: p50 * 1e3, P90Ms: p90 * 1e3, P99Ms: p99 * 1e3,
		}
		data, jerr := json.MarshalIndent(s, "", "  ")
		if jerr != nil {
			return jerr
		}
		if werr := os.WriteFile(*summaryPath, append(data, '\n'), 0o644); werr != nil {
			return werr
		}
	}
	if failures > 0 {
		return fmt.Errorf("%d of %d requests failed verification", failures, requests)
	}
	fmt.Fprintf(out, "all %d points verified byte-identical to local runs\n", len(schedule))
	return nil
}

// post submits one run request, honoring integer-second Retry-After
// backpressure, and reports the final status, result source, and body.
// Only the accepted attempt's latency is observed — 429 turnarounds
// measure the queue's mood, not a result's cost.
func post(client *http.Client, url string, body []byte, retries *stats.Counter, observe func(float64)) (code int, source string, respBody []byte, err error) {
	for attempt := 0; ; attempt++ {
		start := time.Now()
		resp, err := client.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			return 0, "", nil, err
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return 0, "", nil, err
		}
		if resp.StatusCode == http.StatusTooManyRequests && attempt < maxRetries {
			retries.Inc()
			secs, perr := strconv.Atoi(resp.Header.Get("Retry-After"))
			if perr != nil || secs < 1 {
				return 0, "", nil, fmt.Errorf("429 with unusable Retry-After %q", resp.Header.Get("Retry-After"))
			}
			if secs > 5 {
				secs = 5 // a load test shouldn't nap a full minute per hint
			}
			time.Sleep(time.Duration(secs) * time.Second)
			continue
		}
		observe(time.Since(start).Seconds())
		return resp.StatusCode, resp.Header.Get("X-Sweepd-Source"), b, nil
	}
}

func splitCSV(v string) []string {
	parts := strings.Split(v, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}
