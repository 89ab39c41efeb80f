package exp

import (
	"fmt"
	"strconv"
	"strings"

	"checkpointsim/internal/cache"
	"checkpointsim/internal/checkpoint"
	"checkpointsim/internal/failure"
	"checkpointsim/internal/network"
	"checkpointsim/internal/noise"
	"checkpointsim/internal/report"
	"checkpointsim/internal/rng"
	"checkpointsim/internal/run"
	"checkpointsim/internal/simtime"
	"checkpointsim/internal/storage"
	"checkpointsim/internal/workload"
)

// The campaign turns the fixed experiment set into an unbounded scenario
// space: a seeded schedule draws points from the cross product
// workload × scale × protocol × failure law × storage tier × noise, and
// every point runs through the full protocol/storage/validator stack.
// cmd/campaign drives schedules for soak testing; internal/service answers
// single scenarios so campaign results can be checked byte-for-byte
// against sweepd's cache.

// Campaign axis values. Every name is stable — it appears in cache keys.
var (
	// CampaignProtocols are the accepted protocol axis values.
	CampaignProtocols = []string{"none", "coordinated", "uncoord-aligned",
		"uncoord-staggered", "uncoord-random", "hierarchical", "nonblocking",
		"partner", "twolevel", "replication", "cic"}
	// CampaignFailureLaws are the accepted failure-law axis values.
	CampaignFailureLaws = []string{"none", "exp", "weibull"}
	// CampaignStorageTiers are the accepted storage-tier axis values.
	CampaignStorageTiers = []string{"none", "pfs", "burst"}
	// CampaignNoiseLevels are the accepted noise axis values.
	CampaignNoiseLevels = []string{"none", "periodic", "poisson"}
)

// CampaignSpace is the scenario space a campaign samples: one value per
// axis is drawn for each point. The zero value is invalid; start from
// DefaultCampaignSpace.
type CampaignSpace struct {
	// Workloads are generator names (workload.Names()).
	Workloads []string
	// Scales are rank counts.
	Scales []int
	// Protocols, FailureLaws, StorageTiers, NoiseLevels draw from the
	// Campaign* axis lists above.
	Protocols    []string
	FailureLaws  []string
	StorageTiers []string
	NoiseLevels  []string
}

// DefaultCampaignSpace covers every axis value at small scales: the full
// protocol suite, both failure laws, both storage tiers, and both noise
// shapes over six workload skeletons.
func DefaultCampaignSpace() CampaignSpace {
	return CampaignSpace{
		Workloads:    []string{"stencil2d", "stencil3d", "sweep", "cg", "transpose", "farm"},
		Scales:       []int{8, 16, 32},
		Protocols:    CampaignProtocols,
		FailureLaws:  CampaignFailureLaws,
		StorageTiers: CampaignStorageTiers,
		NoiseLevels:  CampaignNoiseLevels,
	}
}

// contains reports whether list has v.
func contains(list []string, v string) bool {
	for _, s := range list {
		if s == v {
			return true
		}
	}
	return false
}

// Validate rejects empty and contradictory axes. A space where every
// point would be discarded (failures with no protocol to recover through)
// is a configuration error, not an empty schedule.
func (s CampaignSpace) Validate() error {
	if len(s.Workloads) == 0 {
		return fmt.Errorf("campaign: empty workload axis")
	}
	for _, w := range s.Workloads {
		if workload.Describe(w) == "" {
			return fmt.Errorf("campaign: unknown workload %q (want one of %s)",
				w, strings.Join(workload.Names(), ", "))
		}
	}
	if len(s.Scales) == 0 {
		return fmt.Errorf("campaign: empty scale axis")
	}
	for _, p := range s.Scales {
		if p < 2 || p > scenarioMaxScale {
			return fmt.Errorf("campaign: bad scale %d (want 2..%d; larger machines would let aligned checkpoint writes outrun the fixed τ=%v)",
				p, scenarioMaxScale, scenarioTau)
		}
	}
	axes := []struct {
		name   string
		have   []string
		accept []string
	}{
		{"protocol", s.Protocols, CampaignProtocols},
		{"failure law", s.FailureLaws, CampaignFailureLaws},
		{"storage tier", s.StorageTiers, CampaignStorageTiers},
		{"noise", s.NoiseLevels, CampaignNoiseLevels},
	}
	for _, ax := range axes {
		if len(ax.have) == 0 {
			return fmt.Errorf("campaign: empty %s axis", ax.name)
		}
		for _, v := range ax.have {
			if !contains(ax.accept, v) {
				return fmt.Errorf("campaign: unknown %s %q (want one of %s)",
					ax.name, v, strings.Join(ax.accept, ", "))
			}
		}
	}
	failing := false
	for _, law := range s.FailureLaws {
		if law != "none" {
			failing = true
		}
	}
	protocols := false
	for _, p := range s.Protocols {
		if p != "none" {
			protocols = true
		}
	}
	if failing && !protocols {
		return fmt.Errorf("campaign: failure laws %v need a checkpoint protocol to recover through, but the protocol axis is only \"none\"", s.FailureLaws)
	}
	if contains(s.Protocols, "replication") {
		even := false
		for _, p := range s.Scales {
			if p%2 == 0 {
				even = true
			}
		}
		if !even {
			return fmt.Errorf("campaign: replication pairs each application rank with a replica and needs an even scale, but scales %v are all odd", s.Scales)
		}
	}
	return nil
}

// Scenario is one campaign point: an assignment of every axis plus the
// point's derived RNG seed. All simulation parameters (intervals, failure
// rates, noise shape) are pure functions of these fields, so a scenario
// fully determines its result.
type Scenario struct {
	Workload   string `json:"workload"`
	Ranks      int    `json:"ranks"`
	Protocol   string `json:"protocol"`
	FailureLaw string `json:"failure_law"`
	Storage    string `json:"storage"`
	Noise      string `json:"noise"`
	Seed       uint64 `json:"seed"`
}

// ID renders the scenario as a compact, stable spec string — what campaign
// logs print and what a user pastes back to reproduce one point.
func (sc Scenario) ID() string {
	return fmt.Sprintf("campaign:%s/p%d/%s/%s/%s/%s@%d", sc.Workload, sc.Ranks,
		sc.Protocol, sc.FailureLaw, sc.Storage, sc.Noise, sc.Seed)
}

// ParseScenario parses a spec string as printed by Scenario.ID, with or
// without the "campaign:" prefix:
//
//	workload/pN/protocol/failure-law/storage/noise@seed
//
// The parsed scenario is validated, so a spec that parses is runnable.
func ParseScenario(spec string) (Scenario, error) {
	body, seedStr, ok := strings.Cut(strings.TrimPrefix(strings.TrimSpace(spec), "campaign:"), "@")
	if !ok {
		return Scenario{}, fmt.Errorf("campaign: spec %q has no @seed suffix", spec)
	}
	seed, err := strconv.ParseUint(seedStr, 10, 64)
	if err != nil {
		return Scenario{}, fmt.Errorf("campaign: bad seed in spec %q: %v", spec, err)
	}
	parts := strings.Split(body, "/")
	if len(parts) != 6 {
		return Scenario{}, fmt.Errorf("campaign: spec %q wants workload/pN/protocol/failure-law/storage/noise@seed", spec)
	}
	ranksStr, ok := strings.CutPrefix(parts[1], "p")
	if !ok {
		return Scenario{}, fmt.Errorf("campaign: spec %q: scale %q wants a p prefix (p16)", spec, parts[1])
	}
	ranks, err := strconv.Atoi(ranksStr)
	if err != nil {
		return Scenario{}, fmt.Errorf("campaign: bad scale in spec %q: %v", spec, err)
	}
	sc := Scenario{Workload: parts[0], Ranks: ranks, Protocol: parts[2],
		FailureLaw: parts[3], Storage: parts[4], Noise: parts[5], Seed: seed}
	return sc, sc.Validate()
}

// Validate checks a single scenario the way CampaignSpace.Validate checks
// axes — a scenario arriving over the service API is untrusted input.
func (sc Scenario) Validate() error {
	return CampaignSpace{
		Workloads:    []string{sc.Workload},
		Scales:       []int{sc.Ranks},
		Protocols:    []string{sc.Protocol},
		FailureLaws:  []string{sc.FailureLaw},
		StorageTiers: []string{sc.Storage},
		NoiseLevels:  []string{sc.Noise},
	}.Validate()
}

// campaignLabel namespaces campaign scheduling in the global seed-derivation
// tree ("camp" as ASCII bytes).
const campaignLabel uint64 = 0x63616d70

// Schedule derives the first n scenarios of the campaign keyed by seed.
// The schedule is a pure function of (space, seed, n): point i draws each
// axis from its own derived stream, so prefixes agree — Schedule(seed, 10)
// is the first ten points of Schedule(seed, 1000) — and any point can be
// re-derived in isolation from (seed, i). Combinations that inject
// failures with no protocol to recover through are rejection-resampled
// from the same stream.
func (s CampaignSpace) Schedule(seed uint64, n int) ([]Scenario, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if n < 0 {
		return nil, fmt.Errorf("campaign: negative point count %d", n)
	}
	out := make([]Scenario, n)
	for i := range out {
		out[i] = s.point(seed, i)
	}
	return out, nil
}

// point derives scenario i of the schedule keyed by seed.
func (s CampaignSpace) point(seed uint64, i int) Scenario {
	r := rng.New(rng.Derive(seed, campaignLabel, uint64(i)))
	for {
		sc := Scenario{
			Workload:   s.Workloads[r.Intn(len(s.Workloads))],
			Ranks:      s.Scales[r.Intn(len(s.Scales))],
			Protocol:   s.Protocols[r.Intn(len(s.Protocols))],
			FailureLaw: s.FailureLaws[r.Intn(len(s.FailureLaws))],
			Storage:    s.StorageTiers[r.Intn(len(s.StorageTiers))],
			Noise:      s.NoiseLevels[r.Intn(len(s.NoiseLevels))],
		}
		if sc.FailureLaw != "none" && sc.Protocol == "none" {
			continue // Validate guarantees a recoverable combination exists
		}
		if sc.Protocol == "replication" && sc.Ranks%2 != 0 {
			continue // Validate guarantees an even scale exists
		}
		sc.Seed = r.Uint64()
		return sc
	}
}

// Fixed scenario simulation parameters. Scenarios vary along the sampled
// axes only; everything else is pinned so results stay comparable across a
// campaign and cheap enough for soak loops. Derived values (failure rates,
// storage bandwidths) are spelled out in Scenario.config.
const (
	scenarioIters   = 30
	scenarioCompute = 200 * simtime.Microsecond
	scenarioJitter  = 0.1
	scenarioBytes   = int64(4096)
	// τ and δ are sized so checkpointing always outruns its own storage
	// contention: under fair-share arbitration, P simultaneous writers
	// (aligned uncoordinated at the largest scale) occupy P·δ of wall
	// clock per interval, so max(Scales)·δ must stay well below τ or
	// writes pile up without bound and the point can never finish.
	scenarioTau   = 2 * simtime.Millisecond
	scenarioDelta = 40 * simtime.Microsecond
	// scenarioMaxScale bounds the scale axis at τ/δ with margin for
	// restarts and noise (Validate enforces it).
	scenarioMaxScale = 40
	// scenarioMaxTime caps runaway points (failure-rich scenarios that
	// cannot outrun their failure rate); a capped run fails the point.
	scenarioMaxTime = simtime.Time(5 * simtime.Second)
)

// scenarioProtocols is the campaign's protocol table: each protocol axis
// value's checkpoint configuration. Each protocol's failures recover the
// way it dictates (see failure.NewInjector).
var scenarioProtocols = map[string]checkpoint.Config{
	"none": {Kind: checkpoint.KindNone},
	"coordinated": {Kind: checkpoint.KindCoordinated,
		Interval: scenarioTau, Write: scenarioDelta},
	"uncoord-aligned": {Kind: checkpoint.KindUncoordinated,
		Interval: scenarioTau, Write: scenarioDelta, Offset: "aligned", Logging: scenarioLog},
	"uncoord-staggered": {Kind: checkpoint.KindUncoordinated,
		Interval: scenarioTau, Write: scenarioDelta, Offset: "staggered", Logging: scenarioLog},
	"uncoord-random": {Kind: checkpoint.KindUncoordinated,
		Interval: scenarioTau, Write: scenarioDelta, Offset: "random", Logging: scenarioLog},
	"hierarchical": {Kind: checkpoint.KindHierarchical,
		Interval: scenarioTau, Write: scenarioDelta, ClusterSize: 4, Logging: scenarioLog},
	"nonblocking": {Kind: checkpoint.KindNonBlocking,
		Interval: scenarioTau, Write: scenarioDelta, Window: 4 * scenarioDelta, Slowdown: 1.05},
	"partner": {Kind: checkpoint.KindPartner,
		Interval: scenarioTau, Write: scenarioDelta, CkptBytes: 256 * 1024, Offset: "staggered"},
	"twolevel": {Kind: checkpoint.KindTwoLevel,
		TwoLevel: checkpoint.TwoLevelParams{
			LocalInterval: scenarioTau / 3, LocalWrite: scenarioDelta / 10,
			GlobalInterval: scenarioTau, GlobalWrite: scenarioDelta}},
	// Degree 1, heartbeats at τ/2 so detection latency stays well under the
	// failure interarrival time at every campaign scale.
	"replication": {Kind: checkpoint.KindReplication,
		HeartbeatPeriod: scenarioTau / 2},
	"cic": {Kind: checkpoint.KindCIC,
		Interval: scenarioTau, Write: scenarioDelta, CICLag: 1, Offset: "staggered"},
}

// scenarioLog is the sender-based logging tax of the logging protocols.
var scenarioLog = checkpoint.LogParams{Alpha: 500 * simtime.Nanosecond, BetaNsPerByte: 0.05}

// scenarioStorage maps each storage-tier axis value to its store
// parameters: "pfs" is a deliberately tight parallel filesystem (the whole
// machine shares 2 GB/s, so coordinated rounds contend hard); "burst" adds
// node-local burst buffers, four ranks per node, in front of the same PFS.
var scenarioStorage = map[string]storage.Params{
	"none":  {},
	"pfs":   {AggregateBytesPerSec: 2e9},
	"burst": {AggregateBytesPerSec: 2e9, NodeBytesPerSec: 4e9, RanksPerNode: 4},
}

// Config describes the scenario as a run configuration; it is a pure
// function of the (validated) scenario and the network. Validation is on:
// campaign points are correctness probes, so unlike Options.Validate it is
// not optional.
func (sc Scenario) Config(net network.Params) run.Config {
	proto := scenarioProtocols[sc.Protocol]
	cfg := run.Config{
		Workload:   sc.Workload,
		Ranks:      sc.Ranks,
		Iterations: scenarioIters,
		Compute:    scenarioCompute,
		Jitter:     scenarioJitter,
		MsgBytes:   scenarioBytes,
		Net:        net,
		Storage:    scenarioStorage[sc.Storage],
		Protocol:   proto,
		Seed:       sc.Seed,
		MaxTime:    scenarioMaxTime,
		Validate:   true,
	}
	if proto.Kind == checkpoint.KindReplication {
		// Replication dedicates half the machine to replicas: the
		// application runs on Ranks/2 ranks for twice the iterations (equal
		// total work), and the assembler widens it back to Ranks.
		cfg.Ranks, cfg.Iterations = sc.Ranks/2, 2*scenarioIters
	}
	if sc.FailureLaw != "none" {
		// Per-node MTBF scales with ranks so the system failure rate is
		// scale-invariant: θ_sys = 10ms against τ = 2ms keeps Young's
		// overhead moderate — failure-rich but always able to outrun.
		f := &failure.Config{
			MTBF:    simtime.Duration(sc.Ranks) * 10 * simtime.Millisecond,
			Restart: simtime.Millisecond,
		}
		if sc.FailureLaw == "weibull" {
			f.Shape = 0.7 // infant mortality, as the study's failure logs show
		}
		if proto.Kind == checkpoint.KindTwoLevel {
			f.LocalCoverage = 0.8
		}
		cfg.Failures = f
	}
	if sc.Noise != "none" {
		cfg.Noise = &noise.Config{Period: simtime.Millisecond,
			Duration: 25 * simtime.Microsecond, Poisson: sc.Noise == "poisson"}
	}
	return cfg
}

// Run executes the scenario through the full stack — workload, protocol,
// storage, noise, failures — under the trace-conformance checker (see
// Config), self-verifying its snapshots when o.SnapshotEvery is set. The
// returned table is one metric/value row set, deterministic for equal
// (scenario, options).
func (sc Scenario) Run(o Options) ([]*report.Table, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	res, err := execute(o, sc.Config(o.net()))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", sc.ID(), err)
	}
	return sc.Tables(res), nil
}

// Tables renders a completed run of the scenario (a run of its Config) as
// its metric/value table.
func (sc Scenario) Tables(res *run.Result) []*report.Table {
	st := res.Protocol.Stats()
	t := report.NewTable("Campaign "+sc.ID(), "metric", "value")
	t.AddRow("makespan_ns", strconv.FormatInt(int64(res.Makespan), 10))
	t.AddRow("events", strconv.FormatInt(res.Events, 10))
	t.AddRow("app_messages", strconv.FormatInt(res.Metrics.AppMessages, 10))
	t.AddRow("ctl_messages", strconv.FormatInt(res.Metrics.CtlMessages, 10))
	t.AddRow("ckpt_writes", strconv.FormatInt(st.Writes, 10))
	t.AddRow("ckpt_rounds", strconv.FormatInt(st.Rounds, 10))
	t.AddRow("ckpt_forced", strconv.FormatInt(st.Forced, 10))
	t.AddRow("logged_messages", strconv.FormatInt(st.LoggedMessages, 10))
	t.AddRow("mirrored_messages", strconv.FormatInt(st.MirroredMessages, 10))
	t.AddRow("heartbeats", strconv.FormatInt(st.Heartbeats, 10))
	t.AddRow("takeovers", strconv.FormatInt(st.Takeovers, 10))
	if res.Store != nil {
		ss := res.Store.Stats()
		t.AddRow("storage_writes", strconv.FormatInt(ss.Writes, 10))
		t.AddRow("storage_bytes", strconv.FormatInt(ss.Bytes, 10))
	}
	t.AddRow("failures", strconv.Itoa(len(res.FailureEvents)))
	t.AddRow("validate", "ok")
	return []*report.Table{t}
}

// CacheFields renders everything that determines the scenario's tables —
// the axis assignment, the seed, and the resolved network parameters —
// for content addressing, with the same exactness contract as
// Options.CacheFields. Validation is always on for scenarios, and Jobs/
// Events/Ctx never change completed results, so none of them appear.
func (sc Scenario) CacheFields(net network.Params) []cache.Field {
	return cache.Fields(struct {
		Scenario Scenario
		Net      network.Params
	}{sc, net.OrDefault()})
}
