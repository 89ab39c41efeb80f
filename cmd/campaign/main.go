// Command campaign runs a seeded randomized scenario campaign: a schedule
// of points drawn from the cross product workload × scale × protocol ×
// failure law × storage tier × noise (internal/exp CampaignSpace), every
// point executed through the full simulator stack under the
// trace-conformance validator and checked for byte-identical reruns.
//
// Usage:
//
//	campaign -seed 42 -points 50            # fixed point budget
//	campaign -duration 5m -j 8              # soak until the clock runs out
//	campaign -server http://localhost:8080  # also verify against live sweepd
//	campaign -repro 'campaign:cg/p16/partner/exp/burst/none@123456'
//
// Determinism contract: for a fixed -seed and -points budget, stdout is
// byte-for-byte identical across runs and across every -j value — the
// schedule is a pure function of the seed, each point derives its RNG
// stream from its own spec, and no wall-clock value is ever printed to
// stdout (wall clock appears only in the -summary file). -duration mode
// trades that away by design: it runs as many points as fit, so only the
// per-point lines, not their count, are reproducible.
//
// Every point is its own verification harness. The point runs twice
// locally and the encoded results must match byte-for-byte; with -server,
// the scenario is also POSTed to a live sweepd twice, the second response
// must be a cache hit, and both response bodies must equal the local
// bytes. A point that fails prints a FAIL line carrying its spec and
// cache key — paste the spec into -repro to rerun exactly that point.
// A 429 from a busy sweepd is backpressure, not a failure: the point
// sleeps the advertised integer Retry-After and resubmits, so a bounded
// queue or cluster slows the campaign instead of failing it.
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
	"checkpointsim/internal/network"
	"checkpointsim/internal/report"
	"checkpointsim/internal/runner"
	"checkpointsim/internal/service"
	"checkpointsim/internal/stats"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "campaign:", err)
		os.Exit(1)
	}
}

// chunkSize is how many points are scheduled and fanned out at a time.
// -duration mode checks the clock between chunks, so a chunk bounds how
// far a soak overshoots its budget; chunking never changes output because
// results are printed in schedule order either way.
const chunkSize = 32

// config is the parsed flag set for one campaign invocation.
type config struct {
	space    exp.CampaignSpace
	seed     uint64
	points   int
	duration time.Duration
	jobs     int
	net      network.Params
	netName  string
	version  string
	server   string
	summary  string
}

func run(args []string, out io.Writer) error {
	cfg := config{space: exp.DefaultCampaignSpace(), seed: 42, jobs: runtime.NumCPU(),
		netName: "default", version: "dev"}
	var repro string
	fs := flag.NewFlagSet("campaign", flag.ContinueOnError)
	fs.Uint64Var(&cfg.seed, "seed", cfg.seed, "campaign seed: determines the whole schedule")
	fs.IntVar(&cfg.points, "points", 0, "point budget (with -duration: a cap)")
	fs.DurationVar(&cfg.duration, "duration", 0, "wall-clock budget; stops between chunks once exceeded")
	fs.IntVar(&cfg.jobs, "j", cfg.jobs, "worker pool size (1 = serial); output is identical for every value")
	fs.StringVar(&cfg.netName, "net", cfg.netName, "network preset: default|capability|ethernet")
	fs.StringVar(&cfg.version, "version", cfg.version, "cache-key code version tag; match the sweepd -version for keys to agree")
	fs.StringVar(&cfg.server, "server", "", "base URL of a live sweepd; every point is verified against its cache")
	fs.StringVar(&repro, "repro", "", "run one scenario spec (as printed in a campaign line) instead of a schedule")
	fs.StringVar(&cfg.summary, "summary", "", "write a run summary (config, per-point lines, wall clock) to this file")

	fs.Var((*axis)(&cfg.space.Workloads), "workloads", "workload axis override, comma separated")
	fs.Var((*scaleAxis)(&cfg.space.Scales), "scales", "scale (ranks) axis override, comma separated")
	fs.Var((*axis)(&cfg.space.Protocols), "protocols", "protocol axis override, comma separated")
	fs.Var((*axis)(&cfg.space.FailureLaws), "failure-laws", "failure-law axis override, comma separated")
	fs.Var((*axis)(&cfg.space.StorageTiers), "storage-tiers", "storage-tier axis override, comma separated")
	fs.Var((*axis)(&cfg.space.NoiseLevels), "noise", "noise axis override, comma separated")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if cfg.jobs < 1 {
		return fmt.Errorf("-j must be >= 1, have %d", cfg.jobs)
	}
	cfg.server = strings.TrimSuffix(cfg.server, "/")
	var err error
	if cfg.net, err = network.Preset(cfg.netName); err != nil {
		return err
	}
	if err := cfg.space.Validate(); err != nil {
		return err
	}

	if repro != "" {
		sc, err := exp.ParseScenario(repro)
		if err != nil {
			return err
		}
		return runRepro(cfg, sc, out)
	}
	if cfg.points <= 0 && cfg.duration <= 0 {
		return fmt.Errorf("need a budget: -points N and/or -duration D")
	}
	return runCampaign(cfg, out)
}

// axis is a campaign axis set from a comma-separated flag; an empty value
// keeps the default axis.
type axis []string

func (a *axis) String() string { return strings.Join(*a, ",") }

func (a *axis) Set(v string) error {
	if parts := splitAxis(v); parts != nil {
		*a = parts
	}
	return nil
}

// scaleAxis is the scale axis, set like axis.
type scaleAxis []int

func (s *scaleAxis) String() string { return joinInts(*s) }

func (s *scaleAxis) Set(v string) error {
	parts := splitAxis(v)
	if parts == nil {
		return nil
	}
	*s = nil
	for _, p := range parts {
		n, err := strconv.Atoi(p)
		if err != nil {
			return fmt.Errorf("bad -scales entry %q: %v", p, err)
		}
		*s = append(*s, n)
	}
	return nil
}

func splitAxis(v string) []string {
	if v == "" {
		return nil
	}
	parts := strings.Split(v, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

// pointResult is one executed point: its stdout line, the rendered tables
// (repro mode prints them), and whether it failed. Failures are data, not
// errors — the campaign runs every point and reports at the end, and a
// deterministic failure prints the same line every run.
type pointResult struct {
	line   string
	tables []*report.Table
	failed bool
}

// runPoint executes one scenario with full verification: run twice
// locally, byte-compare the encoded results, and (with -server) twice
// against the live sweepd, asserting the second response is a cache hit
// and both bodies match the local bytes.
func runPoint(cfg config, client *sweepdClient, sc exp.Scenario) pointResult {
	key := service.ScenarioCacheKey(cfg.version, sc, cfg.net)
	fail := func(err error) pointResult {
		return pointResult{line: fmt.Sprintf("FAIL %s key=%s: %v", sc.ID(), key, err), failed: true}
	}
	o := exp.DefaultOptions()
	o.Net = cfg.net
	tables, err := sc.Run(o)
	if err != nil {
		return fail(err)
	}
	local, err := service.EncodeScenarioResult(sc, tables)
	if err != nil {
		return fail(err)
	}
	again, err := sc.Run(o)
	if err != nil {
		return fail(fmt.Errorf("rerun: %w", err))
	}
	encAgain, err := service.EncodeScenarioResult(sc, again)
	if err != nil {
		return fail(err)
	}
	if !bytes.Equal(local, encAgain) {
		return fail(fmt.Errorf("rerun produced different bytes"))
	}
	if cfg.server != "" {
		if err := verifyServer(cfg, client, sc, local); err != nil {
			return fail(err)
		}
	}
	makespan := "?"
	if rows := tables[0].Rows(); len(rows) > 0 && len(rows[0]) == 2 && rows[0][0] == "makespan_ns" {
		makespan = rows[0][1]
	}
	return pointResult{
		line:   fmt.Sprintf("ok   %s key=%s makespan_ns=%s", sc.ID(), key, makespan),
		tables: tables,
	}
}

// verifyServer POSTs the scenario to the live sweepd twice. The second
// response must come from the cache, and both bodies must byte-match the
// locally computed result — the campaign's end-to-end consistency check.
// The first response may be computed or already cached (a warm server or a
// schedule that repeats a scenario both produce legitimate first-hits).
func verifyServer(cfg config, client *sweepdClient, sc exp.Scenario, local []byte) error {
	first, _, err := client.postScenario(cfg.server, cfg.netName, sc)
	if err != nil {
		return fmt.Errorf("server run: %w", err)
	}
	second, source, err := client.postScenario(cfg.server, cfg.netName, sc)
	if err != nil {
		return fmt.Errorf("server rerun: %w", err)
	}
	if source != "hit" {
		return fmt.Errorf("second server run came from %q, want cache hit", source)
	}
	if !bytes.Equal(first, second) {
		return fmt.Errorf("server cache hit differs from fresh server run")
	}
	if !bytes.Equal(local, first) {
		return fmt.Errorf("local result differs from server result (version or build skew? local key version %q)", cfg.version)
	}
	return nil
}

// Backpressure: a sweepd with a full queue answers 429 with an integer
// Retry-After. The point then sleeps the hint, capped at maxRetryWait so
// a long hint slows the campaign instead of stalling it, and resubmits,
// at most maxRetries times before the 429 fails the point.
const (
	maxRetries   = 20
	maxRetryWait = 5 * time.Second
)

// sweepdClient posts scenarios to a live sweepd and counts the 429
// back-offs it sat through. The count is wall-clock dependent, so it goes
// only to the -summary file, never to stdout.
type sweepdClient struct {
	http    *http.Client
	retries stats.Counter
}

func newSweepdClient() *sweepdClient {
	return &sweepdClient{http: &http.Client{Timeout: 2 * time.Minute}}
}

// postScenario runs one scenario synchronously on the sweepd at base and
// returns the response body and its X-Sweepd-Source ("computed"/"hit").
func (c *sweepdClient) postScenario(base, netName string, sc exp.Scenario) ([]byte, string, error) {
	body, err := json.Marshal(service.SweepRequest{Scenario: &sc, Net: netName})
	if err != nil {
		return nil, "", err
	}
	for attempt := 0; ; attempt++ {
		resp, err := c.http.Post(base+"/api/v1/run", "application/json", bytes.NewReader(body))
		if err != nil {
			return nil, "", err
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, "", err
		}
		if resp.StatusCode == http.StatusTooManyRequests && attempt < maxRetries {
			if secs, perr := strconv.Atoi(resp.Header.Get("Retry-After")); perr == nil && secs >= 0 {
				c.retries.Inc()
				time.Sleep(min(time.Duration(secs)*time.Second, maxRetryWait))
				continue
			}
		}
		if resp.StatusCode != http.StatusOK {
			return nil, "", fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
		}
		return data, resp.Header.Get("X-Sweepd-Source"), nil
	}
}

// runRepro runs a single scenario spec with the same verification as a
// campaign point and prints its full tables.
func runRepro(cfg config, sc exp.Scenario, out io.Writer) error {
	res := runPoint(cfg, newSweepdClient(), sc)
	fmt.Fprintln(out, res.line)
	for _, t := range res.tables {
		t.Fprint(out)
		fmt.Fprintln(out)
	}
	if res.failed {
		return fmt.Errorf("point failed")
	}
	return nil
}

// runCampaign schedules and executes points chunk by chunk until the
// point or wall-clock budget is spent, printing one line per point in
// schedule order.
func runCampaign(cfg config, out io.Writer) error {
	start := time.Now()
	client := newSweepdClient()
	// -j is deliberately absent from the header: stdout must be identical
	// at every worker count, so scheduling knobs never appear in it.
	header := func(w io.Writer) {
		fmt.Fprintf(w, "campaign: seed=%d points=%d duration=%v net=%s version=%s server=%s\n",
			cfg.seed, cfg.points, cfg.duration, cfg.netName, cfg.version, orNone(cfg.server))
		s := cfg.space
		fmt.Fprintf(w, "space: workloads=%s scales=%s protocols=%s failure-laws=%s storage-tiers=%s noise=%s\n",
			strings.Join(s.Workloads, ","), joinInts(s.Scales), strings.Join(s.Protocols, ","),
			strings.Join(s.FailureLaws, ","), strings.Join(s.StorageTiers, ","), strings.Join(s.NoiseLevels, ","))
	}
	header(out)

	var lines []string
	done, failed := 0, 0
	for {
		n := chunkSize
		if cfg.points > 0 && cfg.points-done < n {
			n = cfg.points - done
		}
		if n <= 0 {
			break
		}
		// Schedule prefixes agree for a fixed seed, so re-deriving the
		// whole prefix each chunk yields exactly the points [done, done+n).
		sched, err := cfg.space.Schedule(cfg.seed, done+n)
		if err != nil {
			return err
		}
		chunk := sched[done:]
		results, err := runner.Map(cfg.jobs, chunk, func(i int, sc exp.Scenario) (pointResult, error) {
			return runPoint(cfg, client, sc), nil
		})
		if err != nil {
			return err
		}
		for i, r := range results {
			fmt.Fprintf(out, "%4d %s\n", done+i, r.line)
			lines = append(lines, fmt.Sprintf("%4d %s", done+i, r.line))
			if r.failed {
				failed++
			}
		}
		done += len(results)
		if cfg.duration > 0 && time.Since(start) >= cfg.duration {
			break
		}
	}
	fmt.Fprintf(out, "campaign: %d points, %d ok, %d failed\n", done, done-failed, failed)

	if cfg.summary != "" {
		var sb strings.Builder
		header(&sb)
		for _, l := range lines {
			sb.WriteString(l)
			sb.WriteString("\n")
		}
		fmt.Fprintf(&sb, "campaign: %d points, %d ok, %d failed\n", done, done-failed, failed)
		fmt.Fprintf(&sb, "jobs: %d\nretries-429: %d\nwall-clock: %v\n",
			cfg.jobs, client.retries.Value(), time.Since(start).Round(time.Millisecond))
		if err := os.WriteFile(cfg.summary, []byte(sb.String()), 0o644); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d points failed (rerun one with -repro '<spec>')", failed, done)
	}
	return nil
}

func orNone(s string) string {
	if s == "" {
		return "none"
	}
	return s
}

func joinInts(v []int) string {
	parts := make([]string, len(v))
	for i, n := range v {
		parts[i] = strconv.Itoa(n)
	}
	return strings.Join(parts, ",")
}
