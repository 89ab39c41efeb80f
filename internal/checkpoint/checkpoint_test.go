package checkpoint

import (
	"strings"
	"testing"
	"testing/quick"

	"checkpointsim/internal/goal"
	"checkpointsim/internal/network"
	"checkpointsim/internal/sim"
	"checkpointsim/internal/simtime"
	"checkpointsim/internal/workload"
)

func stencil(t *testing.T, ranks, iters int, compute simtime.Duration) *goal.Program {
	t.Helper()
	p, err := workload.Stencil2D(workload.Stencil2DConfig{
		Base:      workload.Base{Ranks: ranks, Iterations: iters, Compute: compute, Seed: 1},
		HaloBytes: 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func ep(t *testing.T, ranks, iters int, compute simtime.Duration) *goal.Program {
	t.Helper()
	p, err := workload.EP(workload.EPConfig{
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

func TestParamsValidate(t *testing.T) {
	good := Params{Interval: simtime.Second, Write: simtime.Millisecond}
	if err := good.Validate(); err != nil {
		t.Error(err)
	}
	bad := []Params{
		{Interval: 0, Write: 1},
		{Interval: -1, Write: 1},
		{Interval: 1, Write: -1},
		{Interval: 1, Write: 1, CtlBytes: -1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad params %d accepted", i)
		}
	}
	if good.ctlBytes() != 64 {
		t.Errorf("default ctl bytes = %d", good.ctlBytes())
	}
}

func TestCoordinatorTreeShape(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 8, 13, 16, 33} {
		members := make([]int, n)
		for i := range members {
			members[i] = i
		}
		c := &coordinator{members: members}
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
	c := &coordinator{members: make([]int, 64)}
	c.children(0)
	n := testing.AllocsPerRun(10, func() {
		for i := range c.members {
			c.children(i)
		}
	})
	if n != 0 {
		t.Errorf("children of all 64 members allocate %.1f times, want 0", n)
	}
}

func TestNoneProtocol(t *testing.T) {
	var p None
	if p.Name() != "none" || p.Stats() != (Stats{}) || p.LastCheckpoint(3) != 0 {
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
	if cp.LastCheckpoint(0) == 0 || cp.LastCheckpoint(0) != cp.LastCheckpoint(7) {
		t.Error("global recovery line wrong")
	}
	if cp.LastLineStart() >= cp.LastCheckpoint(0) {
		t.Error("line start not before line end")
	}
	if len(cp.Rounds()) != int(st.Rounds) {
		t.Errorf("round records = %d, rounds = %d", len(cp.Rounds()), st.Rounds)
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
	runWith(t, prog, cp)
	rounds := cp.Rounds()
	if len(rounds) < 3 {
		t.Fatalf("only %d rounds", len(rounds))
	}
	for i := 1; i < len(rounds); i++ {
		if rounds[i].Start < rounds[i-1].End {
			t.Errorf("round %d starts at %v before round %d ends at %v",
				i, rounds[i].Start, i-1, rounds[i-1].End)
		}
		if rounds[i].Start < rounds[i-1].Start.Add(params.Interval) {
			t.Errorf("round %d starts %v after %v, before one interval elapsed",
				i, rounds[i].Start, rounds[i-1].Start)
		}
	}
}

func TestUncoordinatedOffsets(t *testing.T) {
	prog := ep(t, 8, 20, 10*simtime.Millisecond)
	params := Params{Interval: 20 * simtime.Millisecond, Write: simtime.Millisecond}
	for _, pol := range []OffsetPolicy{Aligned, Staggered, Random} {
		up, err := NewUncoordinated(params, pol, LogParams{})
		if err != nil {
			t.Fatal(err)
		}
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
			if up.LastCheckpoint(rank) == 0 {
				t.Errorf("%v: rank %d has no checkpoint", pol, rank)
			}
		}
		if !strings.HasPrefix(up.Name(), "uncoordinated-") {
			t.Errorf("name = %q", up.Name())
		}
	}
}

func TestStaggeredSpreadsCheckpoints(t *testing.T) {
	// With staggering, per-rank last-checkpoint times must differ; aligned,
	// on an EP workload, they coincide (no interference).
	prog := ep(t, 8, 400, 250*simtime.Microsecond)
	params := Params{Interval: 30 * simtime.Millisecond, Write: simtime.Microsecond}

	al, _ := NewUncoordinated(params, Aligned, LogParams{})
	runWith(t, prog, al)
	distinctAligned := map[simtime.Time]bool{}
	for r := 0; r < 8; r++ {
		distinctAligned[al.LastCheckpoint(r)] = true
	}

	stg, _ := NewUncoordinated(params, Staggered, LogParams{})
	runWith(t, ep(t, 8, 400, 250*simtime.Microsecond), stg)
	distinctStaggered := map[simtime.Time]bool{}
	for r := 0; r < 8; r++ {
		distinctStaggered[stg.LastCheckpoint(r)] = true
	}
	if len(distinctAligned) != 1 {
		t.Errorf("aligned EP checkpoints not aligned: %d distinct", len(distinctAligned))
	}
	if len(distinctStaggered) < 8 {
		t.Errorf("staggered checkpoints not spread: %d distinct", len(distinctStaggered))
	}
}

func TestRandomOffsetsDeterministicBySeed(t *testing.T) {
	params := Params{Interval: 20 * simtime.Millisecond, Write: simtime.Millisecond}
	get := func() []simtime.Time {
		up, _ := NewUncoordinated(params, Random, LogParams{})
		runWith(t, ep(t, 8, 10, 10*simtime.Millisecond), up)
		out := make([]simtime.Time, 8)
		for r := range out {
			out[r] = up.LastCheckpoint(r)
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
	params := Params{Interval: simtime.Hour, Write: 0} // isolate logging cost

	noLog, _ := NewUncoordinated(params, Aligned, LogParams{})
	rNo := runWith(t, prog1, noLog)

	logged, _ := NewUncoordinated(params, Aligned, LogParams{Alpha: 10 * simtime.Microsecond, BetaNsPerByte: 1})
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
	params := Params{Interval: 20 * simtime.Millisecond, Write: simtime.Millisecond}
	logp := LogParams{Alpha: simtime.Microsecond, BetaNsPerByte: 0.5}

	// Cluster size >= P: one cluster, nothing is logged.
	all, err := NewHierarchical(params, 16, logp)
	if err != nil {
		t.Fatal(err)
	}
	runWith(t, stencil(t, 16, 60, simtime.Millisecond), all)
	if st := all.Stats(); st.LoggedMessages != 0 {
		t.Errorf("single cluster logged %d messages", st.LoggedMessages)
	}
	if all.Stats().Rounds == 0 {
		t.Error("single cluster ran no rounds")
	}

	// Cluster size 1: every message crosses clusters.
	each, _ := NewHierarchical(params, 1, logp)
	r := runWith(t, stencil(t, 16, 60, simtime.Millisecond), each)
	if st := each.Stats(); st.LoggedMessages != r.Metrics.AppMessages {
		t.Errorf("cluster=1 logged %d of %d", st.LoggedMessages, r.Metrics.AppMessages)
	}
	if r.Metrics.CtlMessages != 0 {
		t.Error("cluster=1 should coordinate without messages")
	}
}

func TestHierarchicalMiddle(t *testing.T) {
	params := Params{Interval: 20 * simtime.Millisecond, Write: simtime.Millisecond}
	logp := LogParams{Alpha: simtime.Microsecond}
	h, err := NewHierarchical(params, 4, logp)
	if err != nil {
		t.Fatal(err)
	}
	r := runWith(t, stencil(t, 16, 60, simtime.Millisecond), h)
	st := h.Stats()
	if st.Rounds == 0 || st.Writes == 0 {
		t.Errorf("stats = %+v", st)
	}
	if st.LoggedMessages == 0 || st.LoggedMessages >= r.Metrics.AppMessages {
		t.Errorf("logged %d of %d: should be a strict subset", st.LoggedMessages, r.Metrics.AppMessages)
	}
	for rank := 0; rank < 16; rank++ {
		if h.LastCheckpoint(rank) == 0 {
			t.Errorf("rank %d has no cluster checkpoint", rank)
		}
		if h.LastLineStart(rank) >= h.LastCheckpoint(rank) {
			t.Errorf("rank %d line start after end", rank)
		}
	}
	if h.Name() != "hierarchical-4" || h.ClusterSize() != 4 {
		t.Errorf("identity wrong: %s %d", h.Name(), h.ClusterSize())
	}
	// Ranks in the same cluster share a line; a rank in another cluster
	// (staggered) generally does not.
	if h.LastCheckpoint(0) != h.LastCheckpoint(3) {
		t.Error("cluster members disagree on recovery line")
	}
}

func TestConstructorValidation(t *testing.T) {
	bad := Params{Interval: 0}
	if _, err := NewCoordinated(bad); err == nil {
		t.Error("bad coordinated accepted")
	}
	if _, err := NewUncoordinated(bad, Aligned, LogParams{}); err == nil {
		t.Error("bad uncoordinated accepted")
	}
	good := Params{Interval: 1, Write: 1}
	if _, err := NewUncoordinated(good, OffsetPolicy(9), LogParams{}); err == nil {
		t.Error("bad policy accepted")
	}
	if _, err := NewUncoordinated(good, Aligned, LogParams{Alpha: -1}); err == nil {
		t.Error("bad log alpha accepted")
	}
	if _, err := NewUncoordinated(good, Aligned, LogParams{BetaNsPerByte: -1}); err == nil {
		t.Error("bad log beta accepted")
	}
	if _, err := NewHierarchical(good, 0, LogParams{}); err == nil {
		t.Error("bad cluster size accepted")
	}
}

func TestParseOffsetPolicy(t *testing.T) {
	for _, p := range []OffsetPolicy{Aligned, Staggered, Random} {
		got, err := ParseOffsetPolicy(p.String())
		if err != nil || got != p {
			t.Errorf("round trip %v failed: %v %v", p, got, err)
		}
	}
	if _, err := ParseOffsetPolicy("bogus"); err == nil {
		t.Error("bogus policy parsed")
	}
	if OffsetPolicy(9).String() == "" {
		t.Error("unknown policy String empty")
	}
}

// Property: on a communicating workload, all three protocols complete
// without deadlock for arbitrary small scales, and checkpoint accounting is
// consistent (writes * Write == seized checkpoint time).
func TestQuickProtocolsComplete(t *testing.T) {
	f := func(seed uint8) bool {
		ranks := int(seed)%6 + 2
		prog, err := workload.Stencil2D(workload.Stencil2DConfig{
			Base:      workload.Base{Ranks: ranks, Iterations: 4, Compute: simtime.Millisecond, Seed: uint64(seed)},
			HaloBytes: 512,
		})
		if err != nil {
			return false
		}
		params := Params{Interval: 2 * simtime.Millisecond, Write: 100 * simtime.Microsecond}
		var protos []Protocol
		cp, _ := NewCoordinated(params)
		up, _ := NewUncoordinated(params, OffsetPolicy(seed%3), LogParams{Alpha: simtime.Microsecond})
		hp, _ := NewHierarchical(params, int(seed)%3+1, LogParams{Alpha: simtime.Microsecond})
		protos = append(protos, cp, up, hp)
		for _, p := range protos {
			prog, err := workload.Stencil2D(workload.Stencil2DConfig{
				Base:      workload.Base{Ranks: ranks, Iterations: 4, Compute: simtime.Millisecond, Seed: uint64(seed)},
				HaloBytes: 512,
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
			if r.SeizedTime[ReasonWrite] != simtime.Duration(p.Stats().Writes)*params.Write {
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
