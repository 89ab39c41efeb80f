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
	fs := flag.NewFlagSet("campaign", flag.ContinueOnError)
	var (
		seed     = fs.Uint64("seed", 42, "campaign seed: determines the whole schedule")
		points   = fs.Int("points", 0, "point budget (with -duration: a cap)")
		duration = fs.Duration("duration", 0, "wall-clock budget; stops between chunks once exceeded")
		jobs     = fs.Int("j", runtime.NumCPU(), "worker pool size (1 = serial); output is identical for every value")
		netPre   = fs.String("net", "default", "network preset: default|capability|ethernet")
		version  = fs.String("version", "dev", "cache-key code version tag; match the sweepd -version for keys to agree")
		server   = fs.String("server", "", "base URL of a live sweepd; every point is verified against its cache")
		repro    = fs.String("repro", "", "run one scenario spec (as printed in a campaign line) instead of a schedule")
		summary  = fs.String("summary", "", "write a run summary (config, per-point lines, wall clock) to this file")

		workloads = fs.String("workloads", "", "workload axis override, comma separated")
		scales    = fs.String("scales", "", "scale (ranks) axis override, comma separated")
		protocols = fs.String("protocols", "", "protocol axis override, comma separated")
		laws      = fs.String("failure-laws", "", "failure-law axis override, comma separated")
		tiers     = fs.String("storage-tiers", "", "storage-tier axis override, comma separated")
		noises    = fs.String("noise", "", "noise axis override, comma separated")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *jobs < 1 {
		return fmt.Errorf("-j must be >= 1, have %d", *jobs)
	}
	cfg := config{
		seed: *seed, points: *points, duration: *duration, jobs: *jobs,
		netName: *netPre, version: *version, server: strings.TrimSuffix(*server, "/"),
		summary: *summary,
	}
	var err error
	if cfg.net, err = network.Preset(*netPre); err != nil {
		return err
	}
	cfg.space = exp.DefaultCampaignSpace()
	if err := overrideSpace(&cfg.space, *workloads, *scales, *protocols, *laws, *tiers, *noises); err != nil {
		return err
	}
	if err := cfg.space.Validate(); err != nil {
		return err
	}

	if *repro != "" {
		sc, err := exp.ParseScenario(*repro)
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

// overrideSpace applies non-empty CSV axis overrides to the default space.
func overrideSpace(s *exp.CampaignSpace, workloads, scales, protocols, laws, tiers, noises string) error {
	csv := func(v string) []string {
		if v == "" {
			return nil
		}
		parts := strings.Split(v, ",")
		for i := range parts {
			parts[i] = strings.TrimSpace(parts[i])
		}
		return parts
	}
	if v := csv(workloads); v != nil {
		s.Workloads = v
	}
	if v := csv(scales); v != nil {
		s.Scales = nil
		for _, p := range v {
			n, err := strconv.Atoi(p)
			if err != nil {
				return fmt.Errorf("bad -scales entry %q: %v", p, err)
			}
			s.Scales = append(s.Scales, n)
		}
	}
	if v := csv(protocols); v != nil {
		s.Protocols = v
	}
	if v := csv(laws); v != nil {
		s.FailureLaws = v
	}
	if v := csv(tiers); v != nil {
		s.StorageTiers = v
	}
	if v := csv(noises); v != nil {
		s.NoiseLevels = v
	}
	return nil
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
func runPoint(cfg config, client *http.Client, sc exp.Scenario) pointResult {
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
func verifyServer(cfg config, client *http.Client, sc exp.Scenario, local []byte) error {
	first, _, err := postScenario(client, cfg.server, cfg.netName, sc)
	if err != nil {
		return fmt.Errorf("server run: %w", err)
	}
	second, source, err := postScenario(client, cfg.server, cfg.netName, sc)
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

// postScenario runs one scenario synchronously on the sweepd at base and
// returns the response body and its X-Sweepd-Source ("computed"/"hit").
func postScenario(client *http.Client, base, netName string, sc exp.Scenario) ([]byte, string, error) {
	body, err := json.Marshal(service.SweepRequest{Scenario: &sc, Net: netName})
	if err != nil {
		return nil, "", err
	}
	resp, err := client.Post(base+"/api/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, "", err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, "", fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, resp.Header.Get("X-Sweepd-Source"), nil
}

// runRepro runs a single scenario spec with the same verification as a
// campaign point and prints its full tables.
func runRepro(cfg config, sc exp.Scenario, out io.Writer) error {
	res := runPoint(cfg, httpClient(), sc)
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
	client := httpClient()
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
		fmt.Fprintf(&sb, "jobs: %d\nwall-clock: %v\n", cfg.jobs, time.Since(start).Round(time.Millisecond))
		if err := os.WriteFile(cfg.summary, []byte(sb.String()), 0o644); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d points failed (rerun one with -repro '<spec>')", failed, done)
	}
	return nil
}

func httpClient() *http.Client { return &http.Client{Timeout: 2 * time.Minute} }

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
