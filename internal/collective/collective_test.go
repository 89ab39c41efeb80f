package collective

import (
	"math/bits"
	"testing"
	"testing/quick"

	"checkpointsim/internal/goal"
	"checkpointsim/internal/network"
	"checkpointsim/internal/sim"
	"checkpointsim/internal/simtime"
)

// runProg executes a built program and returns the result.
func runProg(t *testing.T, p *goal.Program) *sim.Result {
	t.Helper()
	if err := p.CheckBalanced(); err != nil {
		t.Fatalf("unbalanced program: %v", err)
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

// staggered builds per-rank entry calcs with distinct durations and returns
// the entries plus the latest entry completion time.
func staggered(b *goal.Builder, unit simtime.Duration) ([]goal.OpID, simtime.Time) {
	p := b.NumRanks()
	entry := make([]goal.OpID, p)
	var latest simtime.Time
	for i := 0; i < p; i++ {
		d := unit * simtime.Duration(i+1)
		entry[i] = b.Calc(i, d)
		if simtime.Time(d) > latest {
			latest = simtime.Time(d)
		}
	}
	return entry, latest
}

func TestBcastMessageCount(t *testing.T) {
	for _, p := range []int{2, 3, 4, 7, 8, 16, 33} {
		b := goal.NewBuilder(p)
		Bcast(b, 0, nil, 0, 1024)
		prog := b.MustBuild()
		r := runProg(t, prog)
		if r.Metrics.AppMessages != int64(p-1) {
			t.Errorf("P=%d: bcast sent %d messages, want %d", p, r.Metrics.AppMessages, p-1)
		}
	}
}

func TestBcastNonZeroRoot(t *testing.T) {
	for _, root := range []int{0, 1, 3, 6} {
		b := goal.NewBuilder(7)
		Bcast(b, root, nil, 0, 64)
		r := runProg(t, b.MustBuild())
		if r.Metrics.AppMessages != 6 {
			t.Errorf("root=%d: %d messages", root, r.Metrics.AppMessages)
		}
	}
}

func TestBcastDepthIsLogarithmic(t *testing.T) {
	mk := func(p int) simtime.Time {
		b := goal.NewBuilder(p)
		Bcast(b, 0, nil, 0, 8)
		return runProg(t, b.MustBuild()).Makespan
	}
	t8, t64 := mk(8), mk(64)
	// Depth doubles (3->6 rounds): makespan should roughly double, and must
	// certainly not grow 8x like a linear tree would.
	if ratio := float64(t64) / float64(t8); ratio > 4 {
		t.Errorf("bcast scaling ratio %v suggests non-logarithmic tree", ratio)
	}
}

func TestReduceMessageCount(t *testing.T) {
	for _, p := range []int{2, 3, 5, 8, 17} {
		b := goal.NewBuilder(p)
		Reduce(b, 0, nil, 0, 512)
		r := runProg(t, b.MustBuild())
		if r.Metrics.AppMessages != int64(p-1) {
			t.Errorf("P=%d: reduce sent %d messages, want %d", p, r.Metrics.AppMessages, p-1)
		}
	}
}

func TestReduceRotatedRoot(t *testing.T) {
	b := goal.NewBuilder(6)
	Reduce(b, 4, nil, 0, 64)
	runProg(t, b.MustBuild()) // completes without deadlock
}

func TestBarrierSemantics(t *testing.T) {
	for _, p := range []int{2, 3, 4, 5, 8, 13, 16} {
		b := goal.NewBuilder(p)
		entry, latest := staggered(b, simtime.Millisecond)
		Barrier(b, entry, 0)
		r := runProg(t, b.MustBuild())
		for i, f := range r.RankFinish {
			if f < latest {
				t.Errorf("P=%d: rank %d exited barrier at %v, before last entry %v",
					p, i, f, latest)
			}
		}
	}
}

func TestBarrierMessageCount(t *testing.T) {
	// Dissemination: P messages per round, ceil(log2 P) rounds.
	cases := map[int]int64{2: 2, 4: 8, 8: 24, 16: 64, 5: 15, 9: 36}
	for p, want := range cases {
		b := goal.NewBuilder(p)
		Barrier(b, nil, 0)
		r := runProg(t, b.MustBuild())
		if r.Metrics.AppMessages != want {
			t.Errorf("P=%d: barrier sent %d messages, want %d", p, r.Metrics.AppMessages, want)
		}
	}
}

func TestBarrierSingleRank(t *testing.T) {
	b := goal.NewBuilder(1)
	entry := []goal.OpID{b.Calc(0, 100)}
	ex := Barrier(b, entry, 0)
	if ex[0] != entry[0] {
		t.Error("single-rank barrier should pass entry through")
	}
	runProg(t, b.MustBuild())
}

func TestAllreduceSemantics(t *testing.T) {
	// Allreduce implies barrier semantics: every exit after every entry.
	for _, p := range []int{2, 3, 4, 6, 7, 8, 12, 16} {
		b := goal.NewBuilder(p)
		entry, latest := staggered(b, simtime.Millisecond)
		Allreduce(b, entry, 0, 2048)
		r := runProg(t, b.MustBuild())
		for i, f := range r.RankFinish {
			if f < latest {
				t.Errorf("P=%d: rank %d exited allreduce at %v before last entry %v",
					p, i, f, latest)
			}
		}
	}
}

func TestAllreduceMessageCount(t *testing.T) {
	// pof2·log2(pof2) + 2·rem.
	cases := map[int]int64{
		2:  2,
		4:  8,
		8:  24,
		16: 64,
		3:  2 + 2,  // pof2=2 (2 msgs), rem=1 (2 msgs)
		6:  8 + 4,  // pof2=4, rem=2
		7:  8 + 6,  // pof2=4, rem=3
		12: 24 + 8, // pof2=8, rem=4
	}
	for p, want := range cases {
		b := goal.NewBuilder(p)
		Allreduce(b, nil, 0, 64)
		r := runProg(t, b.MustBuild())
		if r.Metrics.AppMessages != want {
			t.Errorf("P=%d: allreduce sent %d messages, want %d", p, r.Metrics.AppMessages, want)
		}
	}
}

func TestAllreduceSingleRank(t *testing.T) {
	b := goal.NewBuilder(1)
	Allreduce(b, nil, 0, 64)
	b.Calc(0, 1) // ensure the program is non-empty
	runProg(t, b.MustBuild())
}

func TestAllgather(t *testing.T) {
	for _, p := range []int{2, 3, 4, 8} {
		b := goal.NewBuilder(p)
		entry, latest := staggered(b, simtime.Millisecond)
		Allgather(b, entry, 0, 4096)
		r := runProg(t, b.MustBuild())
		if want := int64(p * (p - 1)); r.Metrics.AppMessages != want {
			t.Errorf("P=%d: allgather sent %d messages, want %d", p, r.Metrics.AppMessages, want)
		}
		for i, f := range r.RankFinish {
			if f < latest {
				t.Errorf("P=%d: rank %d exited allgather before last entry", p, i)
			}
		}
	}
}

func TestAlltoall(t *testing.T) {
	for _, p := range []int{2, 3, 5, 8} {
		b := goal.NewBuilder(p)
		Alltoall(b, nil, 0, 256)
		r := runProg(t, b.MustBuild())
		if want := int64(p * (p - 1)); r.Metrics.AppMessages != want {
			t.Errorf("P=%d: alltoall sent %d messages, want %d", p, r.Metrics.AppMessages, want)
		}
		if want := int64(p*(p-1)) * 256; r.Metrics.AppBytes != want {
			t.Errorf("P=%d: alltoall moved %d bytes, want %d", p, r.Metrics.AppBytes, want)
		}
	}
}

func TestGatherScatterSizes(t *testing.T) {
	for _, p := range []int{2, 3, 4, 7, 8, 11} {
		bg := goal.NewBuilder(p)
		Gather(bg, 0, nil, 0, 100)
		rg := runProg(t, bg.MustBuild())

		bs := goal.NewBuilder(p)
		Scatter(bs, 0, nil, 0, 100)
		rs := runProg(t, bs.MustBuild())

		if rg.Metrics.AppMessages != int64(p-1) || rs.Metrics.AppMessages != int64(p-1) {
			t.Errorf("P=%d: gather/scatter message counts %d/%d, want %d",
				p, rg.Metrics.AppMessages, rs.Metrics.AppMessages, p-1)
		}
		// Mirror images move the same total volume.
		if rg.Metrics.AppBytes != rs.Metrics.AppBytes {
			t.Errorf("P=%d: gather moved %d bytes, scatter %d",
				p, rg.Metrics.AppBytes, rs.Metrics.AppBytes)
		}
		// Every rank's block traverses at least one hop; volume is at least
		// (p-1) blocks and at most p·log2(p) blocks.
		min := int64((p - 1) * 100)
		if rg.Metrics.AppBytes < min {
			t.Errorf("P=%d: gather moved only %d bytes", p, rg.Metrics.AppBytes)
		}
	}
}

func TestChainedCollectives(t *testing.T) {
	// Reduce to root then bcast back — a manual allreduce — using exits as
	// entries. Must run deadlock-free with barrier-like semantics.
	p := 9
	b := goal.NewBuilder(p)
	entry, latest := staggered(b, simtime.Millisecond)
	mid := Reduce(b, 0, entry, 1, 1024)
	Bcast(b, 0, mid, 2, 1024)
	r := runProg(t, b.MustBuild())
	for i, f := range r.RankFinish {
		if f < latest {
			t.Errorf("rank %d finished reduce+bcast at %v before last entry %v", i, f, latest)
		}
	}
	if r.Metrics.AppMessages != int64(2*(p-1)) {
		t.Errorf("messages = %d, want %d", r.Metrics.AppMessages, 2*(p-1))
	}
}

func TestValidatePanics(t *testing.T) {
	b := goal.NewBuilder(4)
	cases := []func(){
		func() { Bcast(b, 9, nil, 0, 1) },
		func() { Reduce(b, -1, nil, 0, 1) },
		func() { Gather(b, 4, nil, 0, 1) },
		func() { Scatter(b, -2, nil, 0, 1) },
		func() { Bcast(b, 0, make([]goal.OpID, 3), 0, 1) },
		func() { Bcast(b, 0, nil, 0, -1) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic", i)
				}
			}()
			f()
		}()
	}
}

// Property: for arbitrary P, every collective builds a balanced, runnable
// program whose every exit follows every entry (for the synchronizing ones).
func TestQuickCollectivesRun(t *testing.T) {
	f := func(seed uint8) bool {
		p := int(seed)%14 + 2
		b := goal.NewBuilder(p)
		entry, latest := staggered(b, simtime.Microsecond)
		ex := Allreduce(b, entry, 0, 128)
		ex = Barrier(b, ex, 1)
		Bcast(b, int(seed)%p, ex, 2, 64)
		prog, err := b.Build()
		if err != nil {
			return false
		}
		if err := prog.CheckBalanced(); err != nil {
			return false
		}
		e, err := sim.New(sim.Config{Net: network.DefaultParams(), Program: prog, Seed: uint64(seed)})
		if err != nil {
			return false
		}
		r, err := e.Run()
		if err != nil {
			return false
		}
		for _, f := range r.RankFinish {
			if f < latest {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestAllreduceAllocsIndependentOfRanks: into a builder with room for its
// ops, a collective allocates only its per-call slices — the per-rank
// sequencers are held by value, not one heap object per rank.
func TestAllreduceAllocsIndependentOfRanks(t *testing.T) {
	const runs = 5
	allocs := func(p int) float64 {
		b := goal.NewBuilder(p)
		b.Grow((runs + 1) * 3 * p * bits.Len(uint(p)))
		return testing.AllocsPerRun(runs, func() { Allreduce(b, nil, 0, 8) })
	}
	if a64, a128 := allocs(64), allocs(128); a64 != a128 {
		t.Errorf("Allreduce allocs: %v at P=64, %v at P=128; want equal", a64, a128)
	}
}

// TestOpCounts checks each op-count function against the ops its collective
// actually adds, across power-of-two and folded rank counts.
func TestOpCounts(t *testing.T) {
	cases := []struct {
		name  string
		count func(int) int
		build func(*goal.Builder, []goal.OpID)
	}{
		{"Reduce", ReduceOps, func(b *goal.Builder, e []goal.OpID) { Reduce(b, 0, e, 1, 8) }},
		{"Allreduce", AllreduceOps, func(b *goal.Builder, e []goal.OpID) { Allreduce(b, e, 1, 8) }},
		{"Alltoall", AlltoallOps, func(b *goal.Builder, e []goal.OpID) { Alltoall(b, e, 1, 8) }},
	}
	for _, c := range cases {
		for p := 1; p <= 70; p++ {
			b := goal.NewBuilder(p)
			entry := make([]goal.OpID, p)
			for i := range entry {
				entry[i] = b.Calc(i, 1)
			}
			c.build(b, entry)
			if got, want := len(b.MustBuild().Ops)-p, c.count(p); got != want {
				t.Errorf("%s P=%d: added %d ops, count says %d", c.name, p, got, want)
			}
		}
	}
}
