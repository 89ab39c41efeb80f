package exp

import (
	"strings"
	"testing"

	"regexp"
	"strconv"

	"checkpointsim/internal/cache"
	"checkpointsim/internal/report"
)

// render concatenates rendered tables, as cmd/sweep and the service do.
func render(tables []*report.Table) string {
	var sb strings.Builder
	for _, tb := range tables {
		sb.WriteString(tb.String())
		sb.WriteString("\n")
	}
	return sb.String()
}

// Same seed, same schedule — and prefixes agree, so a campaign can extend
// its budget without rescheduling. Different seeds must diverge.
func TestScheduleDeterminism(t *testing.T) {
	s := DefaultCampaignSpace()
	a, err := s.Schedule(42, 50)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Schedule(42, 50)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("point %d differs across equal-seed schedules: %v vs %v", i, a[i], b[i])
		}
	}
	prefix, err := s.Schedule(42, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := range prefix {
		if prefix[i] != a[i] {
			t.Fatalf("Schedule(42,10)[%d] != Schedule(42,50)[%d]: prefixes must agree", i, i)
		}
	}
	c, err := s.Schedule(43, 50)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("seeds 42 and 43 produced identical schedules")
	}
}

// The schedule never emits a contradictory point, and every point carries
// a valid axis assignment.
func TestScheduleValidPoints(t *testing.T) {
	sched, err := DefaultCampaignSpace().Schedule(7, 200)
	if err != nil {
		t.Fatal(err)
	}
	for i, sc := range sched {
		if err := sc.Validate(); err != nil {
			t.Errorf("point %d (%s): %v", i, sc.ID(), err)
		}
		if sc.FailureLaw != "none" && sc.Protocol == "none" {
			t.Errorf("point %d injects failures with no protocol", i)
		}
	}
}

func TestCampaignSpaceValidation(t *testing.T) {
	base := DefaultCampaignSpace()
	cases := []struct {
		name   string
		mut    func(*CampaignSpace)
		errHas string
	}{
		{"empty workloads", func(s *CampaignSpace) { s.Workloads = nil }, "empty workload axis"},
		{"unknown workload", func(s *CampaignSpace) { s.Workloads = []string{"quicksort"} }, "unknown workload"},
		{"empty scales", func(s *CampaignSpace) { s.Scales = nil }, "empty scale axis"},
		{"bad scale", func(s *CampaignSpace) { s.Scales = []int{1} }, "bad scale"},
		{"empty protocols", func(s *CampaignSpace) { s.Protocols = nil }, "empty protocol axis"},
		{"unknown protocol", func(s *CampaignSpace) { s.Protocols = []string{"paxos"} }, "unknown protocol"},
		{"empty laws", func(s *CampaignSpace) { s.FailureLaws = nil }, "empty failure law axis"},
		{"unknown law", func(s *CampaignSpace) { s.FailureLaws = []string{"uniform"} }, "unknown failure law"},
		{"empty tiers", func(s *CampaignSpace) { s.StorageTiers = nil }, "empty storage tier axis"},
		{"unknown tier", func(s *CampaignSpace) { s.StorageTiers = []string{"tape"} }, "unknown storage tier"},
		{"empty noise", func(s *CampaignSpace) { s.NoiseLevels = nil }, "empty noise axis"},
		{"unknown noise", func(s *CampaignSpace) { s.NoiseLevels = []string{"loud"} }, "unknown noise"},
		{"failures without protocols", func(s *CampaignSpace) {
			s.Protocols = []string{"none"}
			s.FailureLaws = []string{"exp"}
		}, "need a checkpoint protocol"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := base
			tc.mut(&s)
			err := s.Validate()
			if err == nil {
				t.Fatalf("Validate accepted %+v", s)
			}
			if !strings.Contains(err.Error(), tc.errHas) {
				t.Errorf("error %q does not mention %q", err, tc.errHas)
			}
			if _, err := s.Schedule(1, 1); err == nil {
				t.Error("Schedule accepted an invalid space")
			}
		})
	}
	if err := base.Validate(); err != nil {
		t.Errorf("default space invalid: %v", err)
	}
	if _, err := base.Schedule(1, -1); err == nil {
		t.Error("Schedule accepted a negative point count")
	}
}

// Every scenario in a sampled schedule runs clean through the full stack
// (validator on, storage checked) and reruns byte-identically.
func TestScenarioRunDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full scenario simulations")
	}
	sched, err := DefaultCampaignSpace().Schedule(42, 12)
	if err != nil {
		t.Fatal(err)
	}
	o := DefaultOptions()
	for i, sc := range sched {
		i, sc := i, sc
		t.Run(sc.ID(), func(t *testing.T) {
			t.Parallel()
			first, err := sc.Run(o)
			if err != nil {
				t.Fatalf("point %d: %v", i, err)
			}
			again, err := sc.Run(o)
			if err != nil {
				t.Fatalf("point %d rerun: %v", i, err)
			}
			if render(first) != render(again) {
				t.Fatalf("point %d reruns differ:\n--- first ---\n%s--- again ---\n%s",
					i, render(first), render(again))
			}
		})
	}
}

// Scenario cache keys separate every axis and collapse nothing: two
// scenarios differing in any field get different keys, and equal scenarios
// get equal keys.
func TestScenarioCacheFields(t *testing.T) {
	base := Scenario{Workload: "stencil2d", Ranks: 16, Protocol: "coordinated",
		FailureLaw: "none", Storage: "none", Noise: "none", Seed: 1}
	net := DefaultOptions().Net
	key := func(sc Scenario) string { return cache.Key("v", sc.CacheFields(net)) }
	if key(base) != key(base) {
		t.Fatal("equal scenarios produced different keys")
	}
	muts := []func(*Scenario){
		func(s *Scenario) { s.Workload = "cg" },
		func(s *Scenario) { s.Ranks = 32 },
		func(s *Scenario) { s.Protocol = "partner" },
		func(s *Scenario) { s.FailureLaw = "exp" },
		func(s *Scenario) { s.Storage = "pfs" },
		func(s *Scenario) { s.Noise = "poisson" },
		func(s *Scenario) { s.Seed = 2 },
	}
	seen := map[string]bool{key(base): true}
	for i, mut := range muts {
		sc := base
		mut(&sc)
		k := key(sc)
		if seen[k] {
			t.Errorf("mutation %d did not change the cache key", i)
		}
		seen[k] = true
	}
}

// ParseScenario inverts Scenario.ID exactly, with and without the
// "campaign:" prefix, and rejects malformed specs.
func TestParseScenario(t *testing.T) {
	sched, err := DefaultCampaignSpace().Schedule(11, 20)
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range sched {
		got, err := ParseScenario(sc.ID())
		if err != nil {
			t.Fatalf("ParseScenario(%q): %v", sc.ID(), err)
		}
		if got != sc {
			t.Fatalf("round trip %q: got %+v want %+v", sc.ID(), got, sc)
		}
	}
	if _, err := ParseScenario("sweep/p8/none/none/none/none@3"); err != nil {
		t.Errorf("bare spec without prefix rejected: %v", err)
	}
	bad := []string{
		"",
		"campaign:sweep/p8/none/none/none/none",  // no seed
		"campaign:sweep/8/none/none/none/none@1", // no p prefix
		"campaign:sweep/p8/none/none@1",          // too few parts
		"campaign:sweep/pten/none/none/none/none@1",
		"campaign:sweep/p8/none/none/none/none@notanumber",
		"campaign:sweep/p8/raft/none/none/none@1", // fails validation
	}
	for _, spec := range bad {
		if _, err := ParseScenario(spec); err == nil {
			t.Errorf("ParseScenario(%q) accepted", spec)
		}
	}
}

// Scenario.Validate rejects malformed single points (service-boundary
// input) with the same vocabulary as the space validation.
func TestScenarioValidate(t *testing.T) {
	good := Scenario{Workload: "sweep", Ranks: 8, Protocol: "none",
		FailureLaw: "none", Storage: "none", Noise: "none"}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid scenario rejected: %v", err)
	}
	bad := good
	bad.FailureLaw = "exp"
	if err := bad.Validate(); err == nil {
		t.Error("failures-without-protocol scenario accepted")
	}
	bad = good
	bad.Protocol = "raft"
	if err := bad.Validate(); err == nil {
		t.Error("unknown protocol accepted")
	}
	bad = good
	bad.Ranks = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero ranks accepted")
	}
}

// metricValue pulls one metric's value out of a rendered scenario table.
func metricValue(t *testing.T, rendered, metric string) int64 {
	t.Helper()
	m := regexp.MustCompile(metric + `\s+(-?\d+)`).FindStringSubmatch(rendered)
	if m == nil {
		t.Fatalf("metric %s missing from table:\n%s", metric, rendered)
	}
	v, err := strconv.ParseInt(m[1], 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// The resilience protocols ride the protocol axis: the space advertises
// them, replication refuses an all-odd scale axis, and scheduled
// replication points always land on even scales.
func TestCampaignResilienceAxis(t *testing.T) {
	for _, p := range []string{"replication", "cic"} {
		if !contains(CampaignProtocols, p) {
			t.Errorf("%s missing from the protocol axis", p)
		}
	}
	odd := DefaultCampaignSpace()
	odd.Scales = []int{9, 27}
	if err := odd.Validate(); err == nil || !strings.Contains(err.Error(), "even scale") {
		t.Errorf("all-odd scales with replication: err = %v", err)
	}
	if err := (Scenario{Workload: "sweep", Ranks: 9, Protocol: "replication",
		FailureLaw: "none", Storage: "none", Noise: "none"}).Validate(); err == nil {
		t.Error("odd-rank replication scenario accepted")
	}
	mixed := DefaultCampaignSpace()
	mixed.Scales = []int{8, 9, 16}
	sched, err := mixed.Schedule(5, 400)
	if err != nil {
		t.Fatal(err)
	}
	var repl, cic int
	for i, sc := range sched {
		switch sc.Protocol {
		case "replication":
			repl++
			if sc.Ranks%2 != 0 {
				t.Errorf("point %d: replication scheduled on odd scale %d", i, sc.Ranks)
			}
		case "cic":
			cic++
		}
	}
	if repl == 0 || cic == 0 {
		t.Errorf("400 points drew replication %d times and cic %d times — axis not sampled", repl, cic)
	}
}

// A replication scenario absorbs its failures by takeover and mirrors
// traffic; a CIC scenario forces checkpoints. Both pass the unconditional
// scenario validation inside Run.
func TestCampaignResilienceScenariosRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full scenario simulations")
	}
	o := DefaultOptions()
	// Seed 1 draws failures that land on primary ranks, so takeover is
	// exercised non-vacuously (replica-rank failures need no takeover).
	replSc := Scenario{Workload: "stencil2d", Ranks: 16, Protocol: "replication",
		FailureLaw: "exp", Storage: "none", Noise: "none", Seed: 1}
	tables, err := replSc.Run(o)
	if err != nil {
		t.Fatalf("%s: %v", replSc.ID(), err)
	}
	out := render(tables)
	if metricValue(t, out, "mirrored_messages") == 0 {
		t.Error("replication scenario mirrored nothing")
	}
	if metricValue(t, out, "heartbeats") == 0 {
		t.Error("replication scenario sent no heartbeats")
	}
	if metricValue(t, out, "failures") == 0 {
		t.Error("no failures injected — takeover untested")
	}
	if metricValue(t, out, "takeovers") == 0 {
		t.Error("primary failures occurred but no replica took over")
	}

	cicSc := Scenario{Workload: "transpose", Ranks: 16, Protocol: "cic",
		FailureLaw: "none", Storage: "pfs", Noise: "none", Seed: 4}
	tables, err = cicSc.Run(o)
	if err != nil {
		t.Fatalf("%s: %v", cicSc.ID(), err)
	}
	out = render(tables)
	if metricValue(t, out, "ckpt_writes") == 0 {
		t.Error("CIC scenario wrote no checkpoints")
	}
	if metricValue(t, out, "ckpt_forced") == 0 {
		t.Error("CIC scenario forced no checkpoints on the all-to-all workload")
	}
}

// The protocol and storage tables are the campaign axes: every axis value
// has exactly one row, and every row assembles into a runnable simulation.
func TestScenarioTablesCoverAxes(t *testing.T) {
	if len(scenarioProtocols) != len(CampaignProtocols) {
		t.Errorf("%d protocol rows for %d axis values", len(scenarioProtocols), len(CampaignProtocols))
	}
	if len(scenarioStorage) != len(CampaignStorageTiers) {
		t.Errorf("%d storage rows for %d axis values", len(scenarioStorage), len(CampaignStorageTiers))
	}
	for _, p := range CampaignProtocols {
		if _, ok := scenarioProtocols[p]; !ok {
			t.Errorf("protocol %q has no table row", p)
			continue
		}
		for _, tier := range CampaignStorageTiers {
			if _, ok := scenarioStorage[tier]; !ok {
				t.Fatalf("storage tier %q has no table row", tier)
			}
			sc := Scenario{Workload: "stencil2d", Ranks: 16, Protocol: p,
				FailureLaw: "weibull", Storage: tier, Noise: "poisson", Seed: 1}
			if p == "none" {
				sc.FailureLaw = "none"
			}
			a, err := sc.config(DefaultOptions().Net).Assemble()
			if err != nil {
				t.Errorf("%s: %v", sc.ID(), err)
				continue
			}
			if got := a.Sim.Program.NumRanks; got != sc.Ranks {
				t.Errorf("%s: machine spans %d ranks, want %d", sc.ID(), got, sc.Ranks)
			}
		}
	}
}
