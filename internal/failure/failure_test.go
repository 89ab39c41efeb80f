package failure

import (
	"slices"
	"testing"

	"checkpointsim/internal/checkpoint"
	"checkpointsim/internal/goal"
	"checkpointsim/internal/network"
	"checkpointsim/internal/sim"
	"checkpointsim/internal/simtime"
	"checkpointsim/internal/workload"
)

func stencilProg(t *testing.T, ranks, iters int) *goal.Program {
	t.Helper()
	p, err := workload.FromName("stencil2d", workload.CommonConfig{
		Base:  workload.Base{Ranks: ranks, Iterations: iters, Compute: simtime.Millisecond, Seed: 1},
		Bytes: 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestConfigValidate(t *testing.T) {
	good := Config{MTBF: simtime.Hour, Restart: simtime.Second}
	if err := good.Validate(); err != nil {
		t.Error(err)
	}
	bad := []Config{
		{MTBF: 0},
		{MTBF: -1},
		{MTBF: 1, Shape: -1},
		{MTBF: 1, Restart: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if _, err := NewInjector(bad[0], checkpoint.None{}); err == nil {
		t.Error("NewInjector accepted bad config")
	}
	if _, err := NewInjector(good, nil); err == nil {
		t.Error("NewInjector accepted nil protocol")
	}
}

// mustProtocol builds c's protocol or fails the test.
func mustProtocol(t *testing.T, c checkpoint.Config) checkpoint.Protocol {
	t.Helper()
	p, err := c.New(nil)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// runFailure runs a stencil under the given protocol + failure config. The
// MaxTime cap guards against parameter regimes where recovery cannot keep
// up with the failure rate (a real phenomenon, but fatal to a test).
func runFailure(t *testing.T, cfg Config, proto checkpoint.Protocol, seed uint64) (*sim.Result, *Injector) {
	t.Helper()
	return runProgram(t, stencilProg(t, 16, 40), cfg, proto, seed)
}

// runProgram runs prog under the given protocol + failure config.
func runProgram(t *testing.T, prog *goal.Program, cfg Config, proto checkpoint.Protocol, seed uint64) (*sim.Result, *Injector) {
	t.Helper()
	inj, err := NewInjector(cfg, proto)
	if err != nil {
		t.Fatal(err)
	}
	e, err := sim.New(sim.Config{Net: network.DefaultParams(), Program: prog,
		Agents: []sim.Agent{proto, inj}, Seed: seed, MaxTime: simtime.Time(5 * simtime.Second)})
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	return r, inj
}

func TestGlobalRollbackHitsAllRanks(t *testing.T) {
	params := checkpoint.Params{Interval: 5 * simtime.Millisecond, Write: 100 * simtime.Microsecond}
	cp, _ := checkpoint.NewCoordinated(params)
	// MTBF chosen so failures land mid-run but recovery keeps up (~50ms app
	// on 16 ranks: system MTBF = 640ms/16 = 40ms); seed 16 yields several.
	cfg := Config{MTBF: 640 * simtime.Millisecond, Restart: simtime.Millisecond}
	r, inj := runFailure(t, cfg, cp, 16)
	if len(inj.Events()) == 0 {
		t.Fatal("no failures injected")
	}
	ev := inj.Events()[0]
	// Every rank was seized for the recovery duration of each failure.
	if r.SeizedCount[Reason] != int64(len(inj.Events()))*16 {
		t.Errorf("recovery seizures = %d, want %d failures x 16 ranks",
			r.SeizedCount[Reason], len(inj.Events()))
	}
	if ev.Recovery != cfg.Restart+ev.LostWork {
		t.Errorf("recovery %v != restart %v + lost %v", ev.Recovery, cfg.Restart, ev.LostWork)
	}
	if lost, rec := totals(inj.evts); lost <= 0 || rec <= 0 {
		t.Error("zero totals")
	}
}

func TestLocalReplayHitsOneRank(t *testing.T) {
	up := mustProtocol(t, checkpoint.Config{Kind: checkpoint.KindUncoordinated, Interval: 5 * simtime.Millisecond,
		Write: 100 * simtime.Microsecond, Offset: "staggered", Logging: checkpoint.LogParams{Alpha: simtime.Microsecond}})
	cfg := Config{MTBF: 640 * simtime.Millisecond, Restart: simtime.Millisecond}
	r, inj := runFailure(t, cfg, up, 16)
	if len(inj.Events()) == 0 {
		t.Fatal("no failures injected")
	}
	if r.SeizedCount[Reason] != int64(len(inj.Events())) {
		t.Errorf("recovery seizures = %d, want %d (one per failure)",
			r.SeizedCount[Reason], len(inj.Events()))
	}
	// Replay at 2x: recovery < restart + lost.
	for _, ev := range inj.Events() {
		if ev.Recovery >= cfg.Restart+ev.LostWork && ev.LostWork > 1 {
			t.Errorf("replay not sped up: recovery %v, lost %v", ev.Recovery, ev.LostWork)
		}
	}
}

func TestLocalReplayLosesLessWork(t *testing.T) {
	// With the same failure trace, local replay discards less work than
	// global rollback (per-rank line is at least as fresh as the global
	// one, and only one rank loses it).
	params := checkpoint.Params{Interval: 5 * simtime.Millisecond, Write: 100 * simtime.Microsecond}
	cp, _ := checkpoint.NewCoordinated(params)
	cfgG := Config{MTBF: 640 * simtime.Millisecond, Restart: simtime.Millisecond}
	rG, injG := runFailure(t, cfgG, cp, 16)

	up := mustProtocol(t, checkpoint.Config{Kind: checkpoint.KindUncoordinated, Interval: params.Interval,
		Write: params.Write, Offset: "staggered"})
	cfgL := Config{MTBF: 640 * simtime.Millisecond, Restart: simtime.Millisecond}
	rL, injL := runFailure(t, cfgL, up, 16)

	if len(injG.Events()) == 0 || len(injL.Events()) == 0 {
		t.Skip("no failures with this seed")
	}
	// Total machine-seconds of recovery: global charges every rank.
	_, recG := totals(injG.evts)
	_, localCost := totals(injL.evts)
	globalCost := simtime.Duration(16) * recG
	if localCost >= globalCost {
		t.Errorf("local replay machine cost %v >= global %v", localCost, globalCost)
	}
	if rG.Makespan <= rL.Makespan {
		// Not guaranteed for every seed (different traces), but with equal
		// seeds the failure times coincide and global must be slower.
		t.Errorf("global rollback makespan %v <= local replay %v", rG.Makespan, rL.Makespan)
	}
}

func TestWeibullShapeRuns(t *testing.T) {
	up := mustProtocol(t, checkpoint.Config{Kind: checkpoint.KindUncoordinated, Interval: 5 * simtime.Millisecond,
		Write: 100 * simtime.Microsecond, Offset: "random"})
	cfg := Config{MTBF: 200 * simtime.Millisecond, Shape: 0.7, Restart: simtime.Millisecond}
	_, inj := runFailure(t, cfg, up, 3)
	_ = inj // Weibull arrivals may or may not fire in-window; completing is the test
}

func TestFailureDeterminism(t *testing.T) {
	run := func() (simtime.Time, int) {
		up := mustProtocol(t, checkpoint.Config{Kind: checkpoint.KindUncoordinated, Interval: 5 * simtime.Millisecond,
			Write: 100 * simtime.Microsecond, Offset: "random"})
		cfg := Config{MTBF: 640 * simtime.Millisecond, Restart: simtime.Millisecond}
		r, inj := runFailure(t, cfg, up, 16)
		return r.Makespan, len(inj.Events())
	}
	m1, n1 := run()
	m2, n2 := run()
	if m1 != m2 || n1 != n2 {
		t.Errorf("failure runs differ: %v/%v, %d/%d", m1, m2, n1, n2)
	}
}

func TestFailureBeforeFirstCheckpointLosesEverything(t *testing.T) {
	// A failure before any checkpoint rolls back to t=0. Without any
	// checkpoints the run may never converge (which is exactly why one
	// checkpoints), so cap virtual time and inspect the injected events
	// regardless of whether the app completed.
	params := checkpoint.Params{Interval: simtime.Hour, Write: simtime.Millisecond}
	cp, _ := checkpoint.NewCoordinated(params)
	cfg := Config{MTBF: 160 * simtime.Millisecond, Restart: simtime.Millisecond}
	prog := stencilProg(t, 16, 40)
	inj, err := NewInjector(cfg, cp)
	if err != nil {
		t.Fatal(err)
	}
	e, err := sim.New(sim.Config{Net: network.DefaultParams(), Program: prog,
		Agents: []sim.Agent{cp, inj}, Seed: 5,
		MaxTime: simtime.Time(500 * simtime.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	_, _ = e.Run() // may hit the time cap; the events are what we check
	if len(inj.Events()) == 0 {
		t.Fatal("no failures")
	}
	ev := inj.Events()[0]
	// All progress since t=0 is lost: positive, and bounded by wall time
	// (progress can never exceed elapsed time).
	if ev.LostWork <= 0 || ev.LostWork > simtime.Duration(ev.Time) {
		t.Errorf("lost %v, want in (0, %v]", ev.LostWork, ev.Time)
	}
}

func TestClusterRollbackHitsOneCluster(t *testing.T) {
	hp := mustProtocol(t, checkpoint.Config{Kind: checkpoint.KindHierarchical, Interval: 5 * simtime.Millisecond,
		Write: 100 * simtime.Microsecond, ClusterSize: 4, Logging: checkpoint.LogParams{Alpha: simtime.Microsecond}})
	cfg := Config{MTBF: 640 * simtime.Millisecond, Restart: simtime.Millisecond}
	r, inj := runFailure(t, cfg, hp, 16)
	if len(inj.Events()) == 0 {
		t.Fatal("no failures injected")
	}
	// Each failure seizes exactly the cluster (4 ranks on a 16-rank run).
	if r.SeizedCount[Reason] != int64(len(inj.Events()))*4 {
		t.Errorf("recovery seizures = %d, want %d failures x 4 members",
			r.SeizedCount[Reason], len(inj.Events()))
	}
}

func TestClusterMembersShape(t *testing.T) {
	hp := mustProtocol(t, checkpoint.Config{Kind: checkpoint.KindHierarchical, Interval: simtime.Millisecond,
		Write: 1, ClusterSize: 4}).(*checkpoint.Hierarchical)
	// Run once so the protocol learns the rank count.
	prog := stencilProg(t, 10, 2)
	e, _ := sim.New(sim.Config{Net: network.DefaultParams(), Program: prog,
		Agents: []sim.Agent{hp}, Seed: 1})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	got := hp.ClusterMembers(5)
	want := []int{4, 5, 6, 7}
	if len(got) != len(want) {
		t.Fatalf("members = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("members = %v, want %v", got, want)
		}
	}
	// Last, short cluster on 10 ranks with size 4: {8, 9}.
	tail := hp.ClusterMembers(9)
	if len(tail) != 2 || tail[0] != 8 || tail[1] != 9 {
		t.Errorf("tail cluster = %v", tail)
	}
}

func TestTwoLevelRecoveryDispatch(t *testing.T) {
	tp := checkpoint.TwoLevelParams{
		LocalInterval: 2 * simtime.Millisecond, LocalWrite: 100 * simtime.Microsecond,
		GlobalInterval: 10 * simtime.Millisecond, GlobalWrite: simtime.Millisecond,
	}
	tl := mustProtocol(t, checkpoint.Config{Kind: checkpoint.KindTwoLevel, TwoLevel: tp})
	cfg := Config{MTBF: 320 * simtime.Millisecond, Restart: 2 * simtime.Millisecond, LocalCoverage: 0.7}
	r, inj := runFailure(t, cfg, tl, 16)
	if len(inj.Events()) == 0 {
		t.Fatal("no failures injected")
	}
	// Every failure seizes all 16 ranks regardless of level.
	if r.SeizedCount[Reason] != int64(len(inj.Events()))*16 {
		t.Errorf("recovery seizures = %d for %d failures",
			r.SeizedCount[Reason], len(inj.Events()))
	}
}

func TestTwoLevelConfigValidation(t *testing.T) {
	bad := []Config{
		{MTBF: 1, LocalCoverage: -0.1},
		{MTBF: 1, LocalCoverage: 1.5},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

// replicationProg embeds an 8-rank stencil in a 16-rank machine so the
// upper half serves as replicas.
func replicationProg(t *testing.T) *goal.Program {
	t.Helper()
	p := stencilProg(t, 8, 40)
	w, err := goal.Widen(p, 16)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func runReplication(t *testing.T, cfg Config) (*sim.Result, *Injector, *checkpoint.Replication) {
	t.Helper()
	rp := mustProtocol(t, checkpoint.Config{Kind: checkpoint.KindReplication,
		HeartbeatPeriod: 500 * simtime.Microsecond}).(*checkpoint.Replication)
	var agents []sim.Agent
	var inj *Injector
	var err error
	agents = append(agents, rp)
	if cfg != (Config{}) {
		inj, err = NewInjector(cfg, rp)
		if err != nil {
			t.Fatal(err)
		}
		agents = append(agents, inj)
	}
	e, err := sim.New(sim.Config{Net: network.DefaultParams(), Program: replicationProg(t),
		Agents: agents, Seed: 16, MaxTime: simtime.Time(5 * simtime.Second)})
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	return r, inj, rp
}

// Replica takeover absorbs every failure without losing work: failures
// stall at most the victim's pair, and the run can only slow down relative
// to the failure-free replication layout.
func TestReplicaTakeoverLosesNoWork(t *testing.T) {
	rFree, _, _ := runReplication(t, Config{})
	cfg := Config{MTBF: 40 * simtime.Millisecond, Restart: 100 * simtime.Microsecond}
	r, inj, rp := runReplication(t, cfg)
	if len(inj.Events()) == 0 {
		t.Fatal("no failures injected — takeover semantics untested")
	}
	if rp.Stats().Takeovers == 0 {
		t.Fatal("no primary takeovers occurred")
	}
	for _, ev := range inj.Events() {
		if ev.LostWork != 0 {
			t.Errorf("failure at %v on rank %d lost %v work; replication loses none",
				simtime.Duration(ev.Time), ev.Rank, ev.LostWork)
		}
	}
	if r.Makespan < rFree.Makespan {
		t.Errorf("failing run (%v) beat the failure-free run (%v)",
			simtime.Duration(r.Makespan), simtime.Duration(rFree.Makespan))
	}
	// Only primary failures stall a rank; the seizure count must equal the
	// protocol's takeover count, never the full failure count.
	if r.SeizedCount[Reason] != rp.Stats().Takeovers {
		t.Errorf("recovery seizures = %d, want one per takeover (%d)",
			r.SeizedCount[Reason], rp.Stats().Takeovers)
	}
}

// The protocol picks the recovery. Every kind checkpoint.Config.New builds
// (KindNone builds checkpoint.None{}) runs with only MTBF and Restart set,
// and its discipline shows in its effect: a global rollback seizes all 16
// ranks per failure, a replay only the victim, a cluster rollback the
// victim's 4 cluster members, level dispatch all 16 ranks but restarts
// some failures from the local level in Restart/10, and replica takeover
// loses no work and stalls one rank per primary taken over.
func TestRecoveryFollowsProtocol(t *testing.T) {
	ms, us := simtime.Millisecond, simtime.Microsecond
	logs := checkpoint.LogParams{Alpha: us}
	const takeover = 0
	for _, c := range []struct {
		proto      checkpoint.Config
		perFailure int64 // recovery seizures per failure, or takeover
	}{
		{checkpoint.Config{Kind: checkpoint.KindNone}, 16},
		{checkpoint.Config{Kind: checkpoint.KindCoordinated, Interval: 5 * ms, Write: 100 * us}, 16},
		{checkpoint.Config{Kind: checkpoint.KindUncoordinated, Interval: 5 * ms, Write: 100 * us,
			Logging: logs}, 1},
		{checkpoint.Config{Kind: checkpoint.KindHierarchical, Interval: 5 * ms, Write: 100 * us,
			ClusterSize: 4, Logging: logs}, 4},
		{checkpoint.Config{Kind: checkpoint.KindNonBlocking, Interval: 5 * ms, Write: 100 * us,
			Window: 400 * us, Slowdown: 1.05}, 16},
		{checkpoint.Config{Kind: checkpoint.KindPartner, Interval: 5 * ms, Write: 100 * us,
			CkptBytes: 64 * 1024}, 16},
		{checkpoint.Config{Kind: checkpoint.KindTwoLevel, TwoLevel: checkpoint.TwoLevelParams{
			LocalInterval: 2 * ms, LocalWrite: 100 * us, GlobalInterval: 10 * ms, GlobalWrite: ms}}, 16},
		{checkpoint.Config{Kind: checkpoint.KindReplication, HeartbeatPeriod: 500 * us}, takeover},
		{checkpoint.Config{Kind: checkpoint.KindCIC, Interval: 5 * ms, Write: 100 * us}, 16},
	} {
		t.Run(string(c.proto.Kind), func(t *testing.T) {
			cfg := Config{MTBF: 320 * ms, Restart: ms}
			prog := stencilProg(t, 16, 40)
			if c.proto.Kind == checkpoint.KindReplication {
				prog = replicationProg(t)
			}
			proto := mustProtocol(t, c.proto)
			r, inj := runProgram(t, prog, cfg, proto, 16)
			evts := inj.Events()
			if len(evts) == 0 {
				t.Fatal("no failures injected")
			}
			if c.perFailure == takeover {
				for _, ev := range evts {
					if ev.LostWork != 0 {
						t.Errorf("failure at %v lost %v work under replica takeover",
							simtime.Duration(ev.Time), ev.LostWork)
					}
				}
				if got, want := r.SeizedCount[Reason], proto.Stats().Takeovers; got != want {
					t.Errorf("recovery seizures = %d, want one per takeover (%d)", got, want)
				}
				return
			}
			if got, want := r.SeizedCount[Reason], int64(len(evts))*c.perFailure; got != want {
				t.Errorf("recovery seizures = %d, want %d failures x %d ranks", got, len(evts), c.perFailure)
			}
			if c.proto.Kind == checkpoint.KindTwoLevel && !slices.ContainsFunc(evts, func(ev Event) bool {
				return ev.Recovery-ev.LostWork == cfg.Restart/10
			}) {
				t.Error("no failure restarted from the local level")
			}
		})
	}
}

// totals sums the discarded work and the recovery seizure charged (per
// affected rank; a global rollback charges this to every rank) over evts.
func totals(evts []Event) (lost, recovery simtime.Duration) {
	for _, e := range evts {
		lost += e.LostWork
		recovery += e.Recovery
	}
	return lost, recovery
}
