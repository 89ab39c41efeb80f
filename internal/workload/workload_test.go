package workload

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"checkpointsim/internal/goal"
	"checkpointsim/internal/network"
	"checkpointsim/internal/rng"
	"checkpointsim/internal/sim"
	"checkpointsim/internal/simtime"
)

func base(ranks, iters int) Base {
	return Base{Ranks: ranks, Iterations: iters, Compute: 50 * simtime.Microsecond, Seed: 1}
}

// build builds the named workload at base(ranks, iters) with bytes-sized
// messages.
func build(name string, ranks, iters int, bytes int64) (*goal.Program, error) {
	return FromName(name, CommonConfig{Base: base(ranks, iters), Bytes: bytes})
}

func mustRun(t *testing.T, p *goal.Program, err error) *sim.Result {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := p.CheckBalanced(); err != nil {
		t.Fatal(err)
	}
	e, err := sim.New(sim.Config{Net: network.DefaultParams(), Program: p, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestDims2(t *testing.T) {
	cases := map[int][2]int{
		1: {1, 1}, 2: {2, 1}, 4: {2, 2}, 6: {3, 2}, 12: {4, 3},
		16: {4, 4}, 36: {6, 6}, 7: {7, 1}, 64: {8, 8},
	}
	for p, want := range cases {
		px, py := dims2(p)
		if px*py != p || px < py {
			t.Errorf("dims2(%d) = %d,%d invalid", p, px, py)
		}
		if px != want[0] || py != want[1] {
			t.Errorf("dims2(%d) = %d,%d, want %v", p, px, py, want)
		}
	}
}

func TestDims3(t *testing.T) {
	for _, p := range []int{1, 2, 8, 12, 27, 64, 100, 7} {
		px, py, pz := dims3(p)
		if px*py*pz != p {
			t.Errorf("dims3(%d) = %d,%d,%d does not multiply out", p, px, py, pz)
		}
		if px < py || py < pz {
			t.Errorf("dims3(%d) = %d,%d,%d not ordered", p, px, py, pz)
		}
	}
	if px, py, pz := dims3(27); px != 3 || py != 3 || pz != 3 {
		t.Errorf("dims3(27) = %d,%d,%d", px, py, pz)
	}
}

func TestStencil2DShape(t *testing.T) {
	p, err := build("stencil2d", 16, 3, 1024)
	r := mustRun(t, p, err)
	// 4x4 grid, non-periodic: interior halo links = px(py-1)+py(px-1) = 24
	// edges, 2 messages each per iteration.
	want := int64(3 * 2 * 24)
	if r.Metrics.AppMessages != want {
		t.Errorf("messages = %d, want %d", r.Metrics.AppMessages, want)
	}
}

func TestStencil2DReduceEvery(t *testing.T) {
	// The stencils add an allreduce (64 messages at P=16, a power of two)
	// after every tenth iteration, on top of 48 halo messages per
	// iteration on the 4x4 grid; the straggler's stencil has none.
	for _, c := range []struct {
		name  string
		iters int
		want  int64
	}{
		{"stencil2d", 9, 9 * 48},
		{"stencil2d", 10, 10*48 + 64},
		{"stencil2d", 25, 25*48 + 2*64},
		{"straggler", 25, 25 * 48},
	} {
		p, err := build(c.name, 16, c.iters, 64)
		if r := mustRun(t, p, err); r.Metrics.AppMessages != c.want {
			t.Errorf("%s, %d iterations: messages = %d, want %d",
				c.name, c.iters, r.Metrics.AppMessages, c.want)
		}
	}
}

func TestStencil2DMinimumWork(t *testing.T) {
	// Makespan is at least iterations * compute.
	cfg := CommonConfig{Base: base(9, 5), Bytes: 512}
	p, err := FromName("stencil2d", cfg)
	r := mustRun(t, p, err)
	min := simtime.Time(int64(cfg.Iterations) * int64(cfg.Compute))
	if r.Makespan < min {
		t.Errorf("makespan %v < serial compute %v", r.Makespan, min)
	}
}

func TestStencil3DShape(t *testing.T) {
	p, err := build("stencil3d", 27, 2, 256)
	r := mustRun(t, p, err)
	// 3x3x3 grid: along each of 3 dimensions, 3x3 rows of 2 links; 2
	// messages per link per iteration, 2 iterations.
	want := int64(3 * (3 * 3 * 2) * 2 * 2)
	if r.Metrics.AppMessages != want {
		t.Errorf("messages = %d, want %d", r.Metrics.AppMessages, want)
	}
}

func TestStencil3DNonPeriodic(t *testing.T) {
	p, err := build("stencil3d", 8, 2, 256)
	r := mustRun(t, p, err)
	// 2x2x2: each rank has 3 neighbors: 8*3 = 24 msgs/iter.
	if want := int64(2 * 24); r.Metrics.AppMessages != want {
		t.Errorf("messages = %d, want %d", r.Metrics.AppMessages, want)
	}
}

func TestSweepWavefrontOrdering(t *testing.T) {
	// In a forward sweep, the far corner cannot finish before the serial
	// chain of upwind computations.
	cfg := CommonConfig{Base: base(16, 1), Bytes: 128}
	p, err := FromName("sweep", cfg)
	r := mustRun(t, p, err)
	// 4x4 grid: the last corner is 7 hops of compute deep (diagonal).
	minDepth := simtime.Time(7 * int64(cfg.Compute))
	if r.RankFinish[15] < minDepth {
		t.Errorf("far corner finished at %v, before wavefront depth %v",
			r.RankFinish[15], minDepth)
	}
	// Messages: 2 per interior edge per sweep: px(py-1)+py(px-1) = 24.
	if want := int64(24); r.Metrics.AppMessages != want {
		t.Errorf("messages = %d, want %d", r.Metrics.AppMessages, want)
	}
}

func TestSweepAlternatesDirection(t *testing.T) {
	p, err := build("sweep", 4, 2, 64)
	r := mustRun(t, p, err)
	// Both sweeps complete; 2x2 grid has 4 edges * 2 sweeps.
	if want := int64(8); r.Metrics.AppMessages != want {
		t.Errorf("messages = %d, want %d", r.Metrics.AppMessages, want)
	}
}

func TestCGShape(t *testing.T) {
	p, err := build("cg", 8, 3, 2048)
	r := mustRun(t, p, err)
	// Per iteration: 8 ranks * 2 ring sends + 2 allreduces (24 msgs each
	// for P=8 power of two).
	want := int64(3 * (8*2 + 2*24))
	if r.Metrics.AppMessages != want {
		t.Errorf("messages = %d, want %d", r.Metrics.AppMessages, want)
	}
}

func TestCGDefaults(t *testing.T) {
	// Zero Bytes drops the ring halo: only the two dot products (8
	// messages each at P=4) communicate.
	p, err := build("cg", 4, 2, 0)
	if r := mustRun(t, p, err); r.Metrics.AppMessages != 2*2*8 {
		t.Errorf("messages = %d, want %d", r.Metrics.AppMessages, 2*2*8)
	}
}

func TestCGTwoRanks(t *testing.T) {
	p, err := build("cg", 2, 2, 64)
	r := mustRun(t, p, err)
	if r.Metrics.AppMessages == 0 {
		t.Error("no messages in 2-rank CG")
	}
}

func TestTransposeShape(t *testing.T) {
	p, err := build("transpose", 6, 2, 512)
	r := mustRun(t, p, err)
	if want := int64(2 * 6 * 5); r.Metrics.AppMessages != want {
		t.Errorf("messages = %d, want %d", r.Metrics.AppMessages, want)
	}
}

func TestFarmShape(t *testing.T) {
	p, err := build("farm", 5, 3, 256)
	r := mustRun(t, p, err)
	// Per round: 4 tasks + 4 results.
	if want := int64(3 * 8); r.Metrics.AppMessages != want {
		t.Errorf("messages = %d, want %d", r.Metrics.AppMessages, want)
	}
}

func TestFarmNeedsTwoRanks(t *testing.T) {
	if _, err := build("farm", 1, 1, 0); err == nil {
		t.Error("1-rank farm accepted")
	}
}

func TestEPHasNoCouplingUntilEnd(t *testing.T) {
	p, err := build("ep", 8, 4, 0)
	r := mustRun(t, p, err)
	if want := int64(7); r.Metrics.AppMessages != want {
		t.Errorf("messages = %d, want %d (final reduce only)", r.Metrics.AppMessages, want)
	}
}

func TestEPSingleRank(t *testing.T) {
	p, err := build("ep", 1, 3, 0)
	r := mustRun(t, p, err)
	if r.Metrics.AppMessages != 0 {
		t.Error("single-rank EP sent messages")
	}
	if r.Makespan != simtime.Time(3*int64(50*simtime.Microsecond)) {
		t.Errorf("makespan = %v", r.Makespan)
	}
}

func TestRandomNeighborDeterministicBySeed(t *testing.T) {
	cfg := CommonConfig{Base: base(9, 3), Bytes: 256}
	p1, err1 := FromName("random", cfg)
	p2, err2 := FromName("random", cfg)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if goal.WriteString(p1) != goal.WriteString(p2) {
		t.Error("same seed produced different programs")
	}
	cfg.Seed = 2
	p3, _ := FromName("random", cfg)
	if goal.WriteString(p1) == goal.WriteString(p3) {
		t.Error("different seeds produced identical programs")
	}
	mustRun(t, p1, nil)
}

func TestRandomNeighborOddRanks(t *testing.T) {
	p, err := build("random", 7, 2, 64)
	r := mustRun(t, p, err)
	// 3 pairs per pairing, 2 msgs per pair, 2 pairings, 2 iterations.
	if want := int64(2 * 2 * 3 * 2); r.Metrics.AppMessages != want {
		t.Errorf("messages = %d, want %d", r.Metrics.AppMessages, want)
	}
}

func TestJitterChangesProgramNotStructure(t *testing.T) {
	flat, _ := build("stencil2d", 4, 2, 64)
	jit, err := FromName("stencil2d", CommonConfig{
		Base:  Base{Ranks: 4, Iterations: 2, Compute: 50 * simtime.Microsecond, Jitter: 0.2, Seed: 3},
		Bytes: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	sf, sj := flat.Stats(), jit.Stats()
	if sf.NumOps != sj.NumOps || sf.NumSend != sj.NumSend {
		t.Error("jitter changed program structure")
	}
	if sf.TotalWork == sj.TotalWork {
		t.Error("jitter did not perturb compute durations")
	}
}

func TestValidationErrors(t *testing.T) {
	bad := []Base{
		{Ranks: 0, Iterations: 1, Compute: 1},
		{Ranks: 1, Iterations: 0, Compute: 1},
		{Ranks: 1, Iterations: 1, Compute: -1},
		{Ranks: 1, Iterations: 1, Compute: 1, Jitter: -0.5},
	}
	for i, b := range bad {
		if _, err := FromName("stencil2d", CommonConfig{Base: b}); err == nil {
			t.Errorf("bad base %d accepted", i)
		}
	}
	for _, name := range []string{"stencil2d", "sweep", "transpose"} {
		if _, err := build(name, 4, 1, -1); err == nil {
			t.Errorf("%s: negative message size accepted", name)
		}
	}
}

// TestFromNameRejectsBadInput checks that every workload refuses a
// negative message size and a non-finite, negative or overflowing jitter up
// front, with a workload error, rather than building a program the
// simulator rejects; and that the largest jitter it admits builds.
func TestFromNameRejectsBadInput(t *testing.T) {
	bad := map[string]CommonConfig{
		"negative bytes": {Base: base(8, 2), Bytes: -1},
		"NaN jitter":     {Base: Base{Ranks: 8, Iterations: 2, Compute: simtime.Millisecond, Jitter: math.NaN()}},
		"+Inf jitter":    {Base: Base{Ranks: 8, Iterations: 2, Compute: simtime.Millisecond, Jitter: math.Inf(1)}},
		"-Inf jitter":    {Base: Base{Ranks: 8, Iterations: 2, Compute: simtime.Millisecond, Jitter: math.Inf(-1)}},
		"huge jitter":    {Base: Base{Ranks: 8, Iterations: 2, Compute: simtime.Millisecond, Jitter: 1e300}},
	}
	for _, name := range Names() {
		for what, cfg := range bad {
			_, err := FromName(name, cfg)
			if err == nil || !strings.HasPrefix(err.Error(), "workload: ") {
				t.Errorf("%s with %s: err = %v, want a workload error", name, what, err)
			}
		}
	}
	for what, cfg := range bad {
		if _, err := Straggler(cfg, 0, 2); err == nil {
			t.Errorf("Straggler with %s accepted", what)
		}
	}
	edge := CommonConfig{Base: Base{Ranks: 8, Iterations: 2, Compute: simtime.Millisecond,
		Jitter: 0.99 * (math.MaxInt64/float64(simtime.Millisecond) - 1) / rng.NormalBound}}
	// The registry's straggler doubles one rank's compute, so its largest
	// admitted jitter is the one that keeps 2·Compute in range, and
	// validate's edge overflows it.
	slowEdge := edge
	slowEdge.Jitter = 0.99 * (math.MaxInt64/float64(2*simtime.Millisecond) - 1) / rng.NormalBound
	for _, name := range Names() {
		c := edge
		if name == "straggler" {
			c = slowEdge
		}
		if _, err := FromName(name, c); err != nil {
			t.Errorf("%s with jitter %g: %v", name, c.Jitter, err)
		}
	}
	if _, err := FromName("straggler", edge); err == nil || !strings.HasPrefix(err.Error(), "workload: ") {
		t.Errorf("straggler with jitter %g: err = %v, want a workload error", edge.Jitter, err)
	}
}

func TestRegistry(t *testing.T) {
	names := Names()
	if len(names) < 8 {
		t.Fatalf("registry too small: %v", names)
	}
	for _, n := range names {
		if Describe(n) == "" {
			t.Errorf("%s has no description", n)
		}
		p, err := FromName(n, CommonConfig{Base: base(8, 2), Bytes: 512})
		if err != nil {
			t.Errorf("%s: %v", n, err)
			continue
		}
		mustRun(t, p, nil)
	}
	if _, err := FromName("bogus", CommonConfig{Base: base(4, 1)}); err == nil {
		t.Error("unknown name accepted")
	}
}

// Property: every registered workload builds a balanced, deadlock-free
// program at arbitrary small scales and completes in the simulator.
func TestQuickAllWorkloadsRun(t *testing.T) {
	names := Names()
	f := func(seed uint8) bool {
		ranks := int(seed)%7 + 2
		name := names[int(seed)%len(names)]
		cfg := CommonConfig{
			Base:  Base{Ranks: ranks, Iterations: 2, Compute: 10 * simtime.Microsecond, Jitter: 0.1, Seed: uint64(seed)},
			Bytes: 128,
		}
		p, err := FromName(name, cfg)
		if err != nil {
			return false
		}
		if err := p.CheckBalanced(); err != nil {
			return false
		}
		e, err := sim.New(sim.Config{Net: network.DefaultParams(), Program: p, Seed: uint64(seed)})
		if err != nil {
			return false
		}
		_, err = e.Run()
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestStragglerSlowsMachine(t *testing.T) {
	cfg := CommonConfig{Base: base(16, 10), Bytes: 1024}
	balanced, err := Straggler(cfg, 0, 1)
	rBal := mustRun(t, balanced, err)
	slowed, err := Straggler(cfg, 5, 3)
	rSlow := mustRun(t, slowed, err)
	// With a coupled stencil, the whole machine runs at the straggler's
	// pace: makespan ≈ factor × balanced.
	ratio := float64(rSlow.Makespan) / float64(rBal.Makespan)
	if ratio < 2.0 {
		t.Errorf("straggler ratio %v, want ≈3 (propagated)", ratio)
	}
}

func TestStragglerValidation(t *testing.T) {
	cfg := CommonConfig{Base: base(4, 2), Bytes: 64}
	for _, f := range []float64{0.5, -1, math.NaN(), math.Inf(1), 1e300} {
		if _, err := Straggler(cfg, 0, f); err == nil {
			t.Errorf("factor %v accepted", f)
		}
	}
	// +Inf is refused even when zero compute keeps the product finite.
	idle := cfg
	idle.Compute = 0
	if _, err := Straggler(idle, 0, math.Inf(1)); err == nil {
		t.Error("factor +Inf accepted at zero compute")
	}
	// Out-of-range slow ranks clamp rather than fail.
	p, err := Straggler(cfg, 99, 2)
	mustRun(t, p, err)
	p, err = Straggler(cfg, -1, 2)
	mustRun(t, p, err)
}

// Cross-check: for every registered workload, the contention-free critical
// path lower-bounds the simulated makespan, and the gap stays plausible
// (the simulator only adds endpoint contention, not orders of magnitude).
func TestCriticalPathBoundsAllWorkloads(t *testing.T) {
	net := network.DefaultParams()
	for _, name := range Names() {
		p, err := FromName(name, CommonConfig{
			Base:  Base{Ranks: 9, Iterations: 3, Compute: simtime.Millisecond, Seed: 2},
			Bytes: 2048,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cp, path := goal.CriticalPath(p, net)
		e, err := sim.New(sim.Config{Net: net, Program: p, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		r, err := e.Run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if simtime.Duration(r.Makespan) < cp {
			t.Errorf("%s: makespan %v below critical path %v", name, r.Makespan, cp)
		}
		if len(path) == 0 {
			t.Errorf("%s: empty critical path", name)
		}
		if float64(r.Makespan) > 20*float64(cp) {
			t.Errorf("%s: makespan %v implausibly far above bound %v", name, r.Makespan, cp)
		}
	}
}

// TestProgramDigestsPinned pins the Program.Digest of every registered
// generator at a small geometry, and of E13's straggler (rank P/2 slowed
// by each of its factors) at both of its geometries. The digest keys the
// result cache and the snapshot header, so a change to how a generator
// lays out its ops or edges must show up here first.
func TestProgramDigestsPinned(t *testing.T) {
	b := Base{Ranks: 12, Iterations: 12, Compute: simtime.Millisecond, Jitter: 0.1, Seed: 1}
	want := map[string]string{
		"cg":        "71552c8a83f7d9988a2e9424d45eb3b2cdf3db7f1d8ae934253522addcb2ae91",
		"ep":        "a2a9b7ed98bbf3c2f77f070a096ec0b6833a76512e21c3e1ffbe51a25d428a50",
		"farm":      "c4e1335c279bec2431cf803f054d54054a60aedef12573a328d5ccf1983d9ef5",
		"random":    "23c9a728638e6cb30b0c371424d1a557dd0577055a7756282c59d45cd95b38e3",
		"stencil2d": "fe1d362806a4f2082bc98142fdd32ea53b0381e9951d769f062c89939669aebf",
		"stencil3d": "6a084d16cd72b15487ecfd57ee9825c4e57d10b67b4cbf53aac9ec9844f5ba66",
		"straggler": "aa6efd8b7d4abb8a63732eddf25e17b0f2ab6fe0818cd3b18f09c6f92311b913",
		"sweep":     "68f9fabe45908044f4dbd05c86a243ac85b021885e4e118ade2f01976b594113",
		"transpose": "d665cd976a2cea4ba307c69c4d3cd0fa934d234187e88598e0b71c0bd3827d83",
	}
	for _, name := range Names() {
		p, err := FromName(name, CommonConfig{Base: b, Bytes: 4096})
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", p.Digest()); got != want[name] {
			t.Errorf("%s: digest %s, want %s", name, got, want[name])
		}
	}
	stragglers := []struct {
		ranks, iters int
		factor       float64
		want         string
	}{
		{16, 25, 1, "bde0a1afa77140b84f0d19facb5ca64557c60b89ebbb8092457e1b509b04b53d"},
		{16, 25, 2, "aa9f80d92ad652c6c97950d975278cc352ec6fe0dfaaa6bae7a2211289342be6"},
		{64, 60, 1.5, "c10e53cb35da802267990d594d25ddc5f5ab77db42494a29323b80fa1d721314"},
		{64, 60, 4, "2bbff93e0ba91475a4191741a666219f89393aabf06a60c931afbb7bcf715567"},
	}
	for _, c := range stragglers {
		p, err := Straggler(CommonConfig{
			Base:  Base{Ranks: c.ranks, Iterations: c.iters, Compute: simtime.Millisecond, Seed: 1},
			Bytes: 4096,
		}, c.ranks/2, c.factor)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", p.Digest()); got != c.want {
			t.Errorf("straggler P=%d x%v: digest %s, want %s", c.ranks, c.factor, got, c.want)
		}
	}
}

// TestReservationsFit checks that every generator reserves its op table to
// fit: the table is allocated once (a re-grow would leave spare capacity
// of a quarter or more) and holds at most 5% more ops than it built.
func TestReservationsFit(t *testing.T) {
	check := func(name string, p *goal.Program, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		n, c := len(p.Ops), cap(p.Ops)
		if c < n || float64(c) > 1.05*float64(n) {
			t.Errorf("%s: %d ops in a table of capacity %d (%.2fx)", name, n, c, float64(c)/float64(n))
		}
	}
	for _, name := range Names() {
		for _, ranks := range []int{8, 16, 32, 64} {
			p, err := FromName(name, CommonConfig{Base: base(ranks, 12), Bytes: 1024})
			check(fmt.Sprintf("%s P=%d", name, ranks), p, err)
		}
	}
	p, err := FromName("stencil2d", CommonConfig{Base: base(2048, 10), Bytes: 4096})
	check("stencil2d P=2048", p, err)
}

// TestBuildMemoryPerOp bounds what building the P=2048 stencil of the
// scale_resume benchmark allocates: about a million ops, each a 32-byte op
// plus its share of the edge list, the dependency and reverse arenas and
// their offsets, and the per-rank index. A 64-byte op with a slice header
// for its dependencies allocated about 107 B per op.
func TestBuildMemoryPerOp(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a million-op program")
	}
	cfg := CommonConfig{
		Base:  Base{Ranks: 2048, Iterations: 40, Compute: simtime.Millisecond, Jitter: 0.1, Seed: 1},
		Bytes: 4096,
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	p, err := FromName("stencil2d", cfg)
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	perOp := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(len(p.Ops))
	t.Logf("%d ops, %.1f B per op", len(p.Ops), perOp)
	if perOp > 85 {
		t.Errorf("building %d ops allocated %.1f B per op, want at most 85", len(p.Ops), perOp)
	}
}

// TestBuildAllocsPerIteration: farm allocates as much at 40 iterations as
// at 10, and what cg allocates per extra iteration does not grow with the
// rank count, since only its allreduces allocate (a few slices a call).
// When cg's halo join list and farm's send and receive lists grew on the
// heap, cg allocated once per rank per iteration and farm a few times per
// iteration.
func TestBuildAllocsPerIteration(t *testing.T) {
	allocs := func(name string, p, iters int) float64 {
		return testing.AllocsPerRun(3, func() {
			if _, err := build(name, p, iters, 1024); err != nil {
				t.Fatal(err)
			}
		})
	}
	if short, long := allocs("farm", 16, 10), allocs("farm", 16, 40); long != short {
		t.Errorf("farm at P=16 allocates %.0f times at 10 iterations, %.0f at 40", short, long)
	}
	perIter := func(p int) float64 { return (allocs("cg", p, 40) - allocs("cg", p, 10)) / 30 }
	if small, large := perIter(4), perIter(16); large != small {
		t.Errorf("cg allocates %.1f times per iteration at P=4, %.1f at P=16", small, large)
	}
}

// BenchmarkBuildProgram builds and fingerprints the P=2048 stencil of the
// scale_resume benchmark: one million ops through the builder, the one-pass
// Build and Digest.
func BenchmarkBuildProgram(b *testing.B) {
	cfg := CommonConfig{
		Base:  Base{Ranks: 2048, Iterations: 40, Compute: simtime.Millisecond, Jitter: 0.1, Seed: 1},
		Bytes: 4096,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p, err := FromName("stencil2d", cfg)
		if err != nil {
			b.Fatal(err)
		}
		p.Digest()
	}
}
