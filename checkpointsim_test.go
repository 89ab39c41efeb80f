package checkpointsim

import (
	"testing"
)

func TestRunQuickstart(t *testing.T) {
	res, err := Run(RunConfig{
		Workload:   "stencil2d",
		Ranks:      16,
		Iterations: 20,
		Compute:    Millisecond,
		MsgBytes:   4096,
		Protocol: ProtocolConfig{
			Kind:     ProtoCoordinated,
			Interval: 10 * Millisecond,
			Write:    Millisecond,
		},
		Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= 0 {
		t.Error("zero makespan")
	}
	if res.Protocol.Name() != "coordinated" {
		t.Errorf("protocol = %q", res.Protocol.Name())
	}
	if res.Protocol.Stats().Writes == 0 {
		t.Error("no checkpoint writes")
	}
}

func TestRunAllProtocolKinds(t *testing.T) {
	base := RunConfig{
		Workload:   "cg",
		Ranks:      8,
		Iterations: 10,
		Compute:    Millisecond,
		MsgBytes:   512,
		Seed:       2,
	}
	kinds := []ProtocolConfig{
		{},
		{Kind: ProtoNone},
		{Kind: ProtoCoordinated, Interval: 5 * Millisecond, Write: 100 * Microsecond},
		{Kind: ProtoUncoordinated, Interval: 5 * Millisecond, Write: 100 * Microsecond,
			Offset: "random", Logging: LogParams{Alpha: Microsecond}},
		{Kind: ProtoHierarchical, Interval: 5 * Millisecond, Write: 100 * Microsecond,
			ClusterSize: 4},
	}
	for i, pc := range kinds {
		cfg := base
		cfg.Protocol = pc
		if _, err := Run(cfg); err != nil {
			t.Errorf("kind %d (%q): %v", i, pc.Kind, err)
		}
	}
	cfg := base
	cfg.Protocol = ProtocolConfig{Kind: "bogus"}
	if _, err := Run(cfg); err == nil {
		t.Error("bogus protocol accepted")
	}
	cfg.Protocol = ProtocolConfig{Kind: ProtoUncoordinated, Interval: Millisecond, Offset: "bogus"}
	if _, err := Run(cfg); err == nil {
		t.Error("bogus offset accepted")
	}
}

func TestRunWithNoiseAndFailures(t *testing.T) {
	res, err := Run(RunConfig{
		Workload:   "stencil2d",
		Ranks:      16,
		Iterations: 40,
		Compute:    Millisecond,
		MsgBytes:   2048,
		Protocol: ProtocolConfig{
			Kind:     ProtoUncoordinated,
			Interval: 5 * Millisecond,
			Write:    200 * Microsecond,
		},
		Noise:    &NoiseConfig{Period: 10 * Millisecond, Duration: 100 * Microsecond},
		Failures: &FailureConfig{MTBF: 640 * Millisecond, Restart: Millisecond},
		Seed:     16,
		MaxTime:  Time(30 * Second),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FailureEvents) == 0 {
		t.Error("expected failures with this seed")
	}
	if res.SeizedTime["noise"] == 0 {
		t.Error("no noise recorded")
	}
}

func TestRunDeterminism(t *testing.T) {
	cfg := RunConfig{
		Workload:   "random",
		Ranks:      9,
		Iterations: 10,
		Compute:    Millisecond,
		Jitter:     0.1,
		MsgBytes:   1024,
		Protocol: ProtocolConfig{
			Kind:     ProtoUncoordinated,
			Interval: 5 * Millisecond,
			Write:    100 * Microsecond,
			Offset:   "random",
		},
		Seed: 7,
	}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan != b.Makespan || a.Events != b.Events {
		t.Errorf("runs differ: %v/%v", a.Makespan, b.Makespan)
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(RunConfig{Workload: "nope", Ranks: 4, Iterations: 1, Compute: 1}); err == nil {
		t.Error("unknown workload accepted")
	}
	if _, err := Run(RunConfig{Workload: "ep", Ranks: 0, Iterations: 1, Compute: 1}); err == nil {
		t.Error("zero ranks accepted")
	}
	if _, err := Run(RunConfig{Workload: "ep", Ranks: 2, Iterations: 2, Compute: 1,
		Noise: &NoiseConfig{}}); err == nil {
		t.Error("bad noise accepted")
	}
	if _, err := Run(RunConfig{Workload: "ep", Ranks: 2, Iterations: 2, Compute: 1,
		Failures: &FailureConfig{}}); err == nil {
		t.Error("bad failures accepted")
	}
}

func TestWorkloadsList(t *testing.T) {
	ws := Workloads()
	if len(ws) < 8 {
		t.Fatalf("workloads: %v", ws)
	}
	for _, w := range ws {
		if DescribeWorkload(w) == "" {
			t.Errorf("%s undescribed", w)
		}
	}
}

func TestBuilderFacade(t *testing.T) {
	b := NewBuilder(2)
	b.Send(0, 1, 0, 64)
	b.Recv(1, 0, 0, 64)
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(SimConfig{Net: DefaultNetwork(), Program: prog})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.AppMessages != 1 {
		t.Errorf("messages = %d", res.Metrics.AppMessages)
	}
}

func TestRunExtendedProtocolKinds(t *testing.T) {
	base := RunConfig{
		Workload:   "stencil2d",
		Ranks:      16,
		Iterations: 20,
		Compute:    Millisecond,
		MsgBytes:   2048,
		Seed:       3,
	}
	kinds := []ProtocolConfig{
		{Kind: ProtoNonBlocking, Interval: 10 * Millisecond, Write: Millisecond,
			Window: 4 * Millisecond, Slowdown: 1.25},
		{Kind: ProtoPartner, Interval: 10 * Millisecond, Write: 100 * Microsecond,
			CkptBytes: 1 << 20},
		{Kind: ProtoUncoordinated, Interval: 10 * Millisecond, Write: Millisecond,
			Incremental: IncrementalParams{FullEvery: 4, Fraction: 0.25}},
	}
	for i, pc := range kinds {
		cfg := base
		cfg.Protocol = pc
		res, err := Run(cfg)
		if err != nil {
			t.Errorf("kind %d (%q): %v", i, pc.Kind, err)
			continue
		}
		if res.Protocol.Stats().Writes == 0 {
			t.Errorf("kind %d (%q): no writes", i, pc.Kind)
		}
	}
	// Invalid extended configs propagate errors.
	cfg := base
	cfg.Protocol = ProtocolConfig{Kind: ProtoNonBlocking, Interval: Millisecond,
		Write: Millisecond, Window: 0, Slowdown: 1}
	if _, err := Run(cfg); err == nil {
		t.Error("bad non-blocking window accepted")
	}
	cfg.Protocol = ProtocolConfig{Kind: ProtoPartner, Interval: Millisecond}
	if _, err := Run(cfg); err == nil {
		t.Error("partner without image size accepted")
	}
}

func TestCriticalPathFacade(t *testing.T) {
	b := NewBuilder(2)
	s := b.Seq(0)
	s.Calc(Millisecond)
	s.Send(1, 0, 64)
	b.Seq(1).Recv(0, 0, 64)
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	d, path := CriticalPath(prog, DefaultNetwork())
	if d < Millisecond || len(path) == 0 {
		t.Errorf("critical path = %v over %d ops", d, len(path))
	}
}

func TestEngineTraceHook(t *testing.T) {
	b := NewBuilder(2)
	s0 := b.Seq(0)
	s0.Calc(Millisecond)
	s0.Send(1, 0, 64)
	b.Seq(1).Recv(0, 0, 64)
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var events []TraceEvent
	eng, err := NewEngine(SimConfig{
		Net:     DefaultNetwork(),
		Program: prog,
		Trace:   func(ev TraceEvent) { events = append(events, ev) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	widened := 0
	for _, ev := range events {
		if ev.End < ev.Start {
			t.Errorf("trace event ends before it starts: %+v", ev)
		}
		if ev.Type != TraceCPU {
			widened++
			continue
		}
		kinds[ev.Kind.String()]++
	}
	if kinds["calc"] != 1 || kinds["send"] != 1 || kinds["recv"] != 1 {
		t.Errorf("CPU trace kinds = %v", kinds)
	}
	if widened == 0 {
		t.Error("widened trace carried no non-CPU events (grants, NIC, message lifecycle)")
	}
}

// Every protocol a ProtocolConfig describes must build through New and
// drive a small simulation to completion as an engine agent.
func TestProtocolConstructors(t *testing.T) {
	lg := LogParams{Alpha: Microsecond, BetaNsPerByte: 0.01}
	ctors := []struct {
		name string
		cfg  ProtocolConfig
	}{
		{"coordinated", ProtocolConfig{Kind: ProtoCoordinated, Interval: 10 * Millisecond, Write: Millisecond}},
		{"uncoordinated", ProtocolConfig{Kind: ProtoUncoordinated, Interval: 10 * Millisecond,
			Write: Millisecond, Offset: "staggered", Logging: lg}},
		{"hierarchical", ProtocolConfig{Kind: ProtoHierarchical, Interval: 10 * Millisecond,
			Write: Millisecond, ClusterSize: 4, Logging: lg}},
		{"non-blocking", ProtocolConfig{Kind: ProtoNonBlocking, Interval: 10 * Millisecond,
			Write: Millisecond, Window: 2 * Millisecond, Slowdown: 1.25}},
		{"partner", ProtocolConfig{Kind: ProtoPartner, Interval: 10 * Millisecond,
			Write: Millisecond / 10, CkptBytes: 1 << 16}},
		{"two-level", ProtocolConfig{Kind: ProtoTwoLevel, TwoLevel: TwoLevelParams{
			LocalInterval: 5 * Millisecond, LocalWrite: Millisecond / 2,
			GlobalInterval: 20 * Millisecond, GlobalWrite: 2 * Millisecond}}},
		{"incremental", ProtocolConfig{Kind: ProtoUncoordinated, Interval: 10 * Millisecond,
			Write: Millisecond, Offset: "aligned", Logging: lg,
			Incremental: IncrementalParams{FullEvery: 4, Fraction: 0.25}}},
	}
	for _, tc := range ctors {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			proto, err := tc.cfg.New(nil)
			if err != nil {
				t.Fatal(err)
			}
			if proto.Name() == "" {
				t.Error("protocol has no name")
			}
			const ranks, iters = 8, 40
			b := NewBuilder(ranks)
			for i := 0; i < ranks; i++ {
				s := b.Seq(i)
				for it := 0; it < iters; it++ {
					s.Calc(Millisecond)
					s.Join(
						s.Fork(KindSend, int32((i+1)%ranks), 0, 4096),
						s.Fork(KindRecv, int32((i-1+ranks)%ranks), 0, 4096),
					)
				}
			}
			prog, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			eng, err := NewEngine(SimConfig{
				Net: DefaultNetwork(), Program: prog, Agents: []Agent{proto}, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			res, err := eng.Run()
			if err != nil {
				t.Fatal(err)
			}
			if res.Makespan <= 0 {
				t.Errorf("makespan = %v", res.Makespan)
			}
			if proto.Stats().Writes == 0 && proto.Stats().Rounds == 0 {
				t.Errorf("%s never checkpointed in %v", tc.name, Duration(res.Makespan))
			}
		})
	}
	if _, err := (ProtocolConfig{Kind: ProtoUncoordinated, Interval: Millisecond, Offset: "sometimes"}).New(nil); err == nil {
		t.Error("bad offset policy accepted")
	}
}

// Every collective wrapper must compile into a simulable graph that
// round-trips through the textual GOAL dialect.
func TestCollectiveFacade(t *testing.T) {
	const p = 8
	gens := []struct {
		name  string
		build func(b *Builder) []OpID
	}{
		{"bcast", func(b *Builder) []OpID { return Bcast(b, 0, nil, 0, 64) }},
		{"reduce", func(b *Builder) []OpID { return Reduce(b, 0, nil, 0, 64) }},
		{"allreduce", func(b *Builder) []OpID { return Allreduce(b, nil, 0, 64) }},
		{"barrier", func(b *Builder) []OpID { return Barrier(b, nil, 0) }},
		{"allgather", func(b *Builder) []OpID { return Allgather(b, nil, 0, 64) }},
		{"alltoall", func(b *Builder) []OpID { return Alltoall(b, nil, 0, 64) }},
		{"gather", func(b *Builder) []OpID { return Gather(b, 0, nil, 0, 64) }},
		{"scatter", func(b *Builder) []OpID { return Scatter(b, 0, nil, 0, 64) }},
	}
	for _, g := range gens {
		g := g
		t.Run(g.name, func(t *testing.T) {
			b := NewBuilder(p)
			if exits := g.build(b); len(exits) != p {
				t.Fatalf("%d exit ops for %d ranks", len(exits), p)
			}
			prog, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			back, err := ParseProgram(FormatProgram(prog))
			if err != nil {
				t.Fatalf("GOAL round-trip: %v", err)
			}
			if back.NumRanks != p {
				t.Fatalf("round-trip kept %d ranks", back.NumRanks)
			}
			eng, err := NewEngine(SimConfig{Net: DefaultNetwork(), Program: prog, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			res, err := eng.Run()
			if err != nil {
				t.Fatal(err)
			}
			if res.Makespan <= 0 {
				t.Errorf("makespan = %v", res.Makespan)
			}
		})
	}
}

// The storage constructors must build working arbiters.
func TestStoreConstructors(t *testing.T) {
	st, err := NewStore(StorageParams{AggregateBytesPerSec: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	if st == nil {
		t.Fatal("nil store")
	}
	if UnlimitedStore() == nil {
		t.Fatal("nil unlimited store")
	}
	if _, err := NewStore(StorageParams{AggregateBytesPerSec: -1}); err == nil {
		t.Error("negative bandwidth accepted")
	}
}
