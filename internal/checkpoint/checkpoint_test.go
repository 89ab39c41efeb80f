package checkpoint

import (
	"testing"
	"testing/quick"

	"checkpointsim/internal/goal"
	"checkpointsim/internal/network"
	"checkpointsim/internal/sim"
	"checkpointsim/internal/simtime"
	"checkpointsim/internal/storage"
	"checkpointsim/internal/workload"
)

func stencil(t *testing.T, ranks, iters int, compute simtime.Duration) *goal.Program {
	t.Helper()
	p, err := workload.FromName("stencil2d", workload.CommonConfig{
		Base:  workload.Base{Ranks: ranks, Iterations: iters, Compute: compute, Seed: 1},
		Bytes: 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func ep(t *testing.T, ranks, iters int, compute simtime.Duration) *goal.Program {
	t.Helper()
	p, err := workload.FromName("ep", workload.CommonConfig{
		Base: workload.Base{Ranks: ranks, Iterations: iters, Compute: compute, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func runWith(t *testing.T, prog *goal.Program, agents ...sim.Agent) *sim.Result {
	t.Helper()
	e, err := sim.New(sim.Config{Net: network.DefaultParams(), Program: prog, Agents: agents, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// runMarked runs prog under agents like runWith and returns, per phase
// marker name, the times the marker was emitted, in order.
func runMarked(t *testing.T, prog *goal.Program, agents ...sim.Agent) (*sim.Result, map[string][]simtime.Time) {
	t.Helper()
	marks := make(map[string][]simtime.Time)
	e, err := sim.New(sim.Config{Net: network.DefaultParams(), Program: prog, Agents: agents, Seed: 7,
		Trace: func(ev sim.TraceEvent) {
			if ev.Type == sim.TracePhase {
				marks[ev.Name] = append(marks[ev.Name], ev.Start)
			}
		}})
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	return r, marks
}

// mustNew builds c's protocol, writing through st, as its concrete type T,
// or fails the test.
func mustNew[T Protocol](t testing.TB, c Config, st *storage.Store) T {
	t.Helper()
	p, err := c.New(st)
	if err != nil {
		t.Fatal(err)
	}
	return p.(T)
}

func TestParamsValidate(t *testing.T) {
	good := Params{Interval: simtime.Second, Write: simtime.Millisecond}
	if err := good.Validate(); err != nil {
		t.Error(err)
	}
	bad := []Params{
		{Interval: 0, Write: 1},
		{Interval: -1, Write: 1},
		{Interval: 1, Write: -1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad params %d accepted", i)
		}
	}
}

func TestCoordinatorTreeShape(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 8, 13, 16, 33} {
		c := &tree{n: n}
		seen := make([]int, n)
		depth := 0
		var walk func(i, d int)
		walk = func(i, d int) {
			seen[i]++
			if d > depth {
				depth = d
			}
			for _, j := range c.children(i) {
				if c.parent(j) != i {
					t.Errorf("n=%d: parent(%d)=%d, want %d", n, j, c.parent(j), i)
				}
				walk(j, d+1)
			}
		}
		walk(0, 0)
		for i, s := range seen {
			if s != 1 {
				t.Errorf("n=%d: node %d visited %d times", n, i, s)
			}
		}
		// Binomial depth is the max popcount of any virtual index.
		want := 0
		for v := 0; v < n; v++ {
			pc := 0
			for x := v; x > 0; x &= x - 1 {
				pc++
			}
			if pc > want {
				want = pc
			}
		}
		if depth != want {
			t.Errorf("n=%d: depth %d, want %d", n, depth, want)
		}
	}
}

// TestCoordinatorChildrenAllocationFree: once the tree is laid out, asking
// any member for its children allocates nothing.
func TestCoordinatorChildrenAllocationFree(t *testing.T) {
	c := &tree{n: 64}
	c.children(0)
	n := testing.AllocsPerRun(10, func() {
		for i := range c.n {
			c.children(i)
		}
	})
	if n != 0 {
		t.Errorf("children of all 64 members allocate %.1f times, want 0", n)
	}
}

func TestNoneProtocol(t *testing.T) {
	var p None
	if p.Name() != "none" || p.Stats() != (Stats{}) {
		t.Error("None misbehaves")
	}
	r := runWith(t, ep(t, 4, 3, simtime.Millisecond), p)
	if r.TotalSeized() != 0 {
		t.Error("None seized CPU")
	}
}

func TestCoordinatedBasics(t *testing.T) {
	// 8 ranks, 200ms of compute, checkpoint every 20ms writing 1ms.
	prog := ep(t, 8, 20, 10*simtime.Millisecond)
	params := Params{Interval: 20 * simtime.Millisecond, Write: simtime.Millisecond}
	cp, err := NewCoordinated(params)
	if err != nil {
		t.Fatal(err)
	}
	base := runWith(t, ep(t, 8, 20, 10*simtime.Millisecond))
	r := runWith(t, prog, cp)

	// Coordination sweeps wait at op boundaries (10ms calcs here), so round
	// spans exceed the interval and rounds back-pressure: expect at least a
	// few completed rounds, not makespan/interval.
	st := cp.Stats()
	if st.Rounds < 3 {
		t.Errorf("rounds = %d, want at least 3", st.Rounds)
	}
	if st.Writes < st.Rounds*8 || st.Writes > (st.Rounds+1)*8 {
		t.Errorf("writes = %d inconsistent with %d complete rounds", st.Writes, st.Rounds)
	}
	if st.CoordDelay <= 0 || st.RoundSpan < st.CoordDelay {
		t.Errorf("coord delay %v, round span %v", st.CoordDelay, st.RoundSpan)
	}
	if cp.coord.lineAt == 0 || cp.coord.lineAt > r.Makespan {
		t.Errorf("global recovery line at %v, makespan %v", cp.coord.lineAt, r.Makespan)
	}
	for rank := 0; rank < 8; rank++ {
		if cp.ProgressAtCheckpoint(rank) == 0 {
			t.Errorf("rank %d has no progress saved by the global line", rank)
		}
	}
	// Engine-side accounting.
	if got := r.SeizedTime[ReasonWrite]; got != simtime.Duration(st.Writes)*params.Write {
		t.Errorf("seized[%s] = %v, writes = %d", ReasonWrite, got, st.Writes)
	}
	if r.HeldTime[ReasonCoord] <= 0 {
		t.Error("no coordination hold time recorded")
	}
	if r.Metrics.CtlMessages == 0 {
		t.Error("no control messages for coordination")
	}
	// Overhead at least the serialized write time on the critical path.
	minOverhead := simtime.Duration(st.Rounds) * params.Write
	if got := r.Makespan.Sub(base.Makespan); got < minOverhead {
		t.Errorf("overhead %v < minimum %v", got, minOverhead)
	}
}

func TestCoordinatedRoundsDoNotOverlap(t *testing.T) {
	prog := stencil(t, 9, 40, 5*simtime.Millisecond)
	params := Params{Interval: 10 * simtime.Millisecond, Write: 2 * simtime.Millisecond}
	cp, _ := NewCoordinated(params)
	_, marks := runMarked(t, prog, cp)
	starts, ends := marks[MarkRoundStart], marks[MarkRoundEnd]
	if len(ends) < 3 {
		t.Fatalf("only %d rounds", len(ends))
	}
	// Every completed round ended; at most one more was cut off by the end
	// of the run.
	if int64(len(ends)) != cp.Stats().Rounds || len(starts) < len(ends) || len(starts) > len(ends)+1 {
		t.Fatalf("%d round starts and %d ends for %d rounds", len(starts), len(ends), cp.Stats().Rounds)
	}
	for i := 1; i < len(starts); i++ {
		if starts[i] < ends[i-1] {
			t.Errorf("round %d starts at %v before round %d ends at %v",
				i, starts[i], i-1, ends[i-1])
		}
		if starts[i] < starts[i-1].Add(params.Interval) {
			t.Errorf("round %d starts %v after %v, before one interval elapsed",
				i, starts[i], starts[i-1])
		}
	}
	if last := ends[len(ends)-1]; cp.coord.lineAt != last {
		t.Errorf("recovery line at %v, last round ended at %v", cp.coord.lineAt, last)
	}
}

// TestCoordinationMessages counts the control traffic of blocking and
// non-blocking rounds on one program: a blocking round sweeps the tree
// four times (REQ, ACK, COMMIT, DONE), a non-blocking one twice (COMMIT,
// DONE), each sweep one message per non-root member; a round cut off by
// the end of the run sends part of its messages. Only blocking rounds
// gate the application or mark their phases.
func TestCoordinationMessages(t *testing.T) {
	const ranks = 9
	c := Config{Interval: 10 * simtime.Millisecond, Write: 2 * simtime.Millisecond,
		Window: 4 * simtime.Millisecond, Slowdown: 1.25}
	for _, tc := range []struct {
		kind Kind
		k    int64
	}{{KindCoordinated, 4}, {KindNonBlocking, 2}} {
		c.Kind = tc.kind
		p, err := c.New(nil)
		if err != nil {
			t.Fatal(err)
		}
		r, marks := runMarked(t, stencil(t, ranks, 40, 5*simtime.Millisecond), p)
		rounds := p.Stats().Rounds
		if rounds < 3 {
			t.Fatalf("%s: only %d rounds", tc.kind, rounds)
		}
		lo, hi := tc.k*(ranks-1)*rounds, tc.k*(ranks-1)*(rounds+1)
		if got := r.Metrics.CtlMessages; got < lo || got > hi {
			t.Errorf("%s: %d control messages for %d rounds, want %d..%d", tc.kind, got, rounds, lo, hi)
		}
		if tc.kind != KindNonBlocking {
			continue
		}
		for _, m := range []string{MarkRoundStart, MarkRoundCommit, MarkRoundEnd, sim.MarkHold, sim.MarkHoldRelease} {
			if n := len(marks[m]); n != 0 {
				t.Errorf("%s: %d %q markers", tc.kind, n, m)
			}
		}
	}
}

func TestUncoordinatedOffsets(t *testing.T) {
	prog := ep(t, 8, 20, 10*simtime.Millisecond)
	for _, pol := range []string{"aligned", "staggered", "random"} {
		up := mustNew[*Uncoordinated](t, Config{Kind: KindUncoordinated,
			Interval: 20 * simtime.Millisecond, Write: simtime.Millisecond, Offset: pol}, nil)
		r := runWith(t, prog, up)
		st := up.Stats()
		if st.Rounds != 0 {
			t.Errorf("%v: uncoordinated has rounds", pol)
		}
		if st.Writes < 8 {
			t.Errorf("%v: writes = %d", pol, st.Writes)
		}
		if r.Metrics.CtlMessages != 0 {
			t.Errorf("%v: uncoordinated sent control messages", pol)
		}
		for rank := 0; rank < 8; rank++ {
			if up.last[rank] == 0 {
				t.Errorf("%v: rank %d has no checkpoint", pol, rank)
			}
		}
		if up.Name() != "uncoordinated-"+pol {
			t.Errorf("name = %q", up.Name())
		}
	}
}

func TestStaggeredSpreadsCheckpoints(t *testing.T) {
	// With staggering, per-rank last-checkpoint times must differ; aligned,
	// on an EP workload, they coincide (no interference).
	prog := ep(t, 8, 400, 250*simtime.Microsecond)
	c := Config{Kind: KindUncoordinated, Interval: 30 * simtime.Millisecond, Write: simtime.Microsecond,
		Offset: "aligned"}

	al := mustNew[*Uncoordinated](t, c, nil)
	runWith(t, prog, al)
	distinctAligned := map[simtime.Time]bool{}
	for r := 0; r < 8; r++ {
		distinctAligned[al.last[r]] = true
	}

	c.Offset = "staggered"
	stg := mustNew[*Uncoordinated](t, c, nil)
	runWith(t, ep(t, 8, 400, 250*simtime.Microsecond), stg)
	distinctStaggered := map[simtime.Time]bool{}
	for r := 0; r < 8; r++ {
		distinctStaggered[stg.last[r]] = true
	}
	if len(distinctAligned) != 1 {
		t.Errorf("aligned EP checkpoints not aligned: %d distinct", len(distinctAligned))
	}
	if len(distinctStaggered) < 8 {
		t.Errorf("staggered checkpoints not spread: %d distinct", len(distinctStaggered))
	}
}

func TestRandomOffsetsDeterministicBySeed(t *testing.T) {
	get := func() []simtime.Time {
		up := mustNew[*Uncoordinated](t, Config{Kind: KindUncoordinated,
			Interval: 20 * simtime.Millisecond, Write: simtime.Millisecond, Offset: "random"}, nil)
		runWith(t, ep(t, 8, 10, 10*simtime.Millisecond), up)
		out := make([]simtime.Time, 8)
		for r := range out {
			out[r] = up.last[r]
		}
		return out
	}
	a, b := get(), get()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("random offsets differ across identical runs")
		}
	}
}

func TestLoggingPenaltyTaxesSends(t *testing.T) {
	prog1 := stencil(t, 9, 10, simtime.Millisecond)
	prog2 := stencil(t, 9, 10, simtime.Millisecond)
	c := Config{Kind: KindUncoordinated, Interval: simtime.Hour, Offset: "aligned"} // isolate logging cost

	noLog := mustNew[*Uncoordinated](t, c, nil)
	rNo := runWith(t, prog1, noLog)

	c.Logging = LogParams{Alpha: 10 * simtime.Microsecond, BetaNsPerByte: 1}
	logged := mustNew[*Uncoordinated](t, c, nil)
	rLog := runWith(t, prog2, logged)

	st := logged.Stats()
	if st.LoggedMessages != rLog.Metrics.AppMessages {
		t.Errorf("logged %d of %d messages", st.LoggedMessages, rLog.Metrics.AppMessages)
	}
	if st.LoggedBytes != rLog.Metrics.AppBytes {
		t.Errorf("logged %d of %d bytes", st.LoggedBytes, rLog.Metrics.AppBytes)
	}
	wantPenalty := simtime.Duration(st.LoggedMessages)*(10*simtime.Microsecond) +
		simtime.Duration(st.LoggedBytes)
	if st.LogPenalty != wantPenalty {
		t.Errorf("penalty = %v, want %v", st.LogPenalty, wantPenalty)
	}
	if rLog.Makespan <= rNo.Makespan {
		t.Error("logging did not slow the application")
	}
}

func TestHierarchicalExtremes(t *testing.T) {
	c := Config{Kind: KindHierarchical, Interval: 20 * simtime.Millisecond, Write: simtime.Millisecond,
		Logging: LogParams{Alpha: simtime.Microsecond, BetaNsPerByte: 0.5}, ClusterSize: 16}

	// Cluster size >= P: one cluster, nothing is logged.
	all := mustNew[*Hierarchical](t, c, nil)
	runWith(t, stencil(t, 16, 60, simtime.Millisecond), all)
	if st := all.Stats(); st.LoggedMessages != 0 {
		t.Errorf("single cluster logged %d messages", st.LoggedMessages)
	}
	if all.Stats().Rounds == 0 {
		t.Error("single cluster ran no rounds")
	}

	// Cluster size 1: every message crosses clusters.
	c.ClusterSize = 1
	each := mustNew[*Hierarchical](t, c, nil)
	r := runWith(t, stencil(t, 16, 60, simtime.Millisecond), each)
	if st := each.Stats(); st.LoggedMessages != r.Metrics.AppMessages {
		t.Errorf("cluster=1 logged %d of %d", st.LoggedMessages, r.Metrics.AppMessages)
	}
	if r.Metrics.CtlMessages != 0 {
		t.Error("cluster=1 should coordinate without messages")
	}
}

func TestHierarchicalMiddle(t *testing.T) {
	h := mustNew[*Hierarchical](t, Config{Kind: KindHierarchical, Interval: 20 * simtime.Millisecond,
		Write: simtime.Millisecond, Logging: LogParams{Alpha: simtime.Microsecond}, ClusterSize: 4}, nil)
	r := runWith(t, stencil(t, 16, 60, simtime.Millisecond), h)
	st := h.Stats()
	if st.Rounds == 0 || st.Writes == 0 {
		t.Errorf("stats = %+v", st)
	}
	if st.LoggedMessages == 0 || st.LoggedMessages >= r.Metrics.AppMessages {
		t.Errorf("logged %d of %d: should be a strict subset", st.LoggedMessages, r.Metrics.AppMessages)
	}
	for rank := 0; rank < 16; rank++ {
		if h.coords[h.cluster(rank)].lineAt == 0 || h.ProgressAtCheckpoint(rank) == 0 {
			t.Errorf("rank %d has no cluster checkpoint", rank)
		}
	}
	if h.Name() != "hierarchical-4" || h.clusterSize != 4 {
		t.Errorf("identity wrong: %s %d", h.Name(), h.clusterSize)
	}
	// Clusters run staggered schedules, so no two share a recovery line.
	for k := 1; k < len(h.coords); k++ {
		if h.coords[k].lineAt == h.coords[k-1].lineAt {
			t.Errorf("clusters %d and %d share the recovery line %v", k-1, k, h.coords[k].lineAt)
		}
	}
}

func TestParseOffsetPolicy(t *testing.T) {
	for in, want := range map[string]string{"": "staggered", "aligned": "aligned",
		"staggered": "staggered", "random": "random"} {
		if got, err := (Config{Offset: in}).offset(); err != nil || got != want {
			t.Errorf("offset %q resolves to %q, %v; want %q", in, got, err, want)
		}
	}
	if _, err := (Config{Offset: "bogus"}).offset(); err == nil {
		t.Error("bogus policy parsed")
	}
}

// Property: on a communicating workload, all three protocols complete
// without deadlock for arbitrary small scales, and checkpoint accounting is
// consistent (writes * Write == seized checkpoint time).
func TestQuickProtocolsComplete(t *testing.T) {
	f := func(seed uint8) bool {
		ranks := int(seed)%6 + 2
		prog, err := workload.FromName("stencil2d", workload.CommonConfig{
			Base:  workload.Base{Ranks: ranks, Iterations: 4, Compute: simtime.Millisecond, Seed: uint64(seed)},
			Bytes: 512,
		})
		if err != nil {
			return false
		}
		c := Config{Interval: 2 * simtime.Millisecond, Write: 100 * simtime.Microsecond,
			Offset:  []string{"aligned", "staggered", "random"}[seed%3],
			Logging: LogParams{Alpha: simtime.Microsecond}, ClusterSize: int(seed)%3 + 1}
		var protos []Protocol
		for _, k := range []Kind{KindCoordinated, KindUncoordinated, KindHierarchical} {
			c.Kind = k
			protos = append(protos, mustNew[Protocol](t, c, nil))
		}
		for _, p := range protos {
			prog, err := workload.FromName("stencil2d", workload.CommonConfig{
				Base:  workload.Base{Ranks: ranks, Iterations: 4, Compute: simtime.Millisecond, Seed: uint64(seed)},
				Bytes: 512,
			})
			if err != nil {
				return false
			}
			e, err := sim.New(sim.Config{Net: network.DefaultParams(), Program: prog, Agents: []sim.Agent{p}, Seed: uint64(seed)})
			if err != nil {
				return false
			}
			r, err := e.Run()
			if err != nil {
				return false
			}
			if r.SeizedTime[ReasonWrite] != simtime.Duration(p.Stats().Writes)*c.Write {
				return false
			}
		}
		_ = prog
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
