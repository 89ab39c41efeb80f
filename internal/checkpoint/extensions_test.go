package checkpoint

import (
	"testing"

	"checkpointsim/internal/simtime"
)

func TestNonBlockingRunsWithoutGating(t *testing.T) {
	nb := mustNew[*NonBlockingCoordinated](t, Config{Kind: KindNonBlocking,
		Interval: 10 * simtime.Millisecond, Write: simtime.Millisecond,
		Window: 4 * simtime.Millisecond, Slowdown: 1.25}, nil)
	r := runWith(t, stencil(t, 16, 60, simtime.Millisecond), nb)
	st := nb.Stats()
	if st.Rounds == 0 || st.Writes == 0 {
		t.Fatalf("no rounds: %+v", st)
	}
	// The defining property: no application gating at all.
	if len(r.HeldTime) != 0 {
		t.Errorf("non-blocking protocol gated the app: %v", r.HeldTime)
	}
	// And no exclusive write seizures either.
	if r.SeizedTime[ReasonWrite] != 0 {
		t.Errorf("non-blocking protocol seized CPU: %v", r.SeizedTime)
	}
	// Interference shows up as scaled time instead.
	var extra simtime.Duration
	for _, d := range r.RankScaledExtra {
		extra += d
	}
	if extra == 0 {
		t.Error("no interference recorded despite slowdown > 1")
	}
	if nb.coord.lineAt == 0 {
		t.Error("no recovery line committed")
	}
	for rank := 0; rank < 16; rank++ {
		if nb.ProgressAtCheckpoint(rank) == 0 {
			t.Errorf("rank %d has no progress snapshot", rank)
		}
	}
	if nb.Name() != "nonblocking-coordinated" {
		t.Errorf("name = %q", nb.Name())
	}
}

func TestNonBlockingCheaperThanBlocking(t *testing.T) {
	// With equal interval and write volume, the non-blocking variant should
	// beat the blocking one on a coupled workload: no quiesce, no gate.
	c := Config{Kind: KindCoordinated, Interval: 10 * simtime.Millisecond, Write: 2 * simtime.Millisecond,
		Window: 8 * simtime.Millisecond, Slowdown: 1.25}
	base := runWith(t, stencil(t, 16, 60, simtime.Millisecond))

	cp := mustNew[*Coordinated](t, c, nil)
	rBlocking := runWith(t, stencil(t, 16, 60, simtime.Millisecond), cp)

	c.Kind = KindNonBlocking
	nb := mustNew[*NonBlockingCoordinated](t, c, nil)
	rNB := runWith(t, stencil(t, 16, 60, simtime.Millisecond), nb)

	ovB := rBlocking.OverheadPercent(base)
	ovN := rNB.OverheadPercent(base)
	if ovN >= ovB {
		t.Errorf("non-blocking overhead %.1f%% >= blocking %.1f%%", ovN, ovB)
	}
	if ovN <= 0 {
		t.Errorf("non-blocking overhead %.1f%% should still be positive", ovN)
	}
}

func TestPartnerShipsCheckpoints(t *testing.T) {
	c := Config{Kind: KindPartner, Interval: 10 * simtime.Millisecond,
		Write: 100 * simtime.Microsecond, CkptBytes: 256 * 1024, Offset: "staggered"}
	pt := mustNew[*Partner](t, c, nil)
	r := runWith(t, stencil(t, 16, 60, simtime.Millisecond), pt)
	st := pt.Stats()
	if st.Writes == 0 {
		t.Fatal("no partner checkpoints")
	}
	bytes, transfers := pt.Shipped()
	if transfers != st.Writes {
		t.Errorf("transfers %d != writes %d", transfers, st.Writes)
	}
	if bytes != transfers*c.CkptBytes {
		t.Errorf("shipped %d bytes over %d transfers", bytes, transfers)
	}
	// Transfers are real control traffic.
	if r.Metrics.CtlBytes < bytes {
		t.Errorf("ctl bytes %d < shipped %d", r.Metrics.CtlBytes, bytes)
	}
	for rank := 0; rank < 16; rank++ {
		if pt.last[rank] == 0 {
			t.Errorf("rank %d has no committed image", rank)
		}
		if pt.ProgressAtCheckpoint(rank) == 0 {
			t.Errorf("rank %d has no progress snapshot", rank)
		}
	}
	if pt.Name() != "partner" {
		t.Errorf("name = %q", pt.Name())
	}
}

func TestPartnerDefaultStrideIsHalfMachine(t *testing.T) {
	pt := mustNew[*Partner](t, Config{Kind: KindPartner, Interval: simtime.Millisecond,
		Write: 1, CkptBytes: 8}, nil)
	runWith(t, ep(t, 8, 3, simtime.Millisecond), pt)
	if got := pt.partner(1); got != 5 {
		t.Errorf("partner(1) = %d, want 5", got)
	}
	if got := pt.partner(6); got != 2 {
		t.Errorf("partner(6) = %d, want 2", got)
	}
}

func TestPartnerSingleRank(t *testing.T) {
	pt := mustNew[*Partner](t, Config{Kind: KindPartner, Interval: simtime.Millisecond,
		Write: 1, CkptBytes: 8}, nil)
	runWith(t, ep(t, 1, 5, simtime.Millisecond), pt)
	if pt.Stats().Writes == 0 {
		t.Error("single-rank partner never checkpointed")
	}
	if _, transfers := pt.Shipped(); transfers != 0 {
		t.Error("single rank shipped to itself")
	}
}

func TestIncrementalParamsValidate(t *testing.T) {
	good := IncrementalParams{FullEvery: 10, Fraction: 0.2}
	if err := good.Validate(); err != nil {
		t.Error(err)
	}
	bad := []IncrementalParams{
		{FullEvery: 0, Fraction: 0.5},
		{FullEvery: 5, Fraction: 0},
		{FullEvery: 5, Fraction: 1.5},
	}
	for i, ip := range bad {
		if err := ip.Validate(); err == nil {
			t.Errorf("bad params %d accepted", i)
		}
	}
}

func TestIncrementalWriteDurations(t *testing.T) {
	c := Config{Kind: KindUncoordinated, Interval: simtime.Millisecond, Write: 1000,
		Incremental: IncrementalParams{FullEvery: 4, Fraction: 0.25}}
	u := mustNew[*Uncoordinated](t, c, nil)
	// Writes 1..3 incremental, 4 full, 5..7 incremental, 8 full.
	for n, want := range map[int64]simtime.Duration{
		1: 250, 2: 250, 3: 250, 4: 1000, 5: 250, 8: 1000,
	} {
		if got := u.writeDuration(n); got != want {
			t.Errorf("writeDuration(%d) = %v, want %v", n, got, want)
		}
	}
	// Plain protocol always writes full.
	c.Incremental = IncrementalParams{}
	plain := mustNew[*Uncoordinated](t, c, nil)
	if plain.writeDuration(3) != 1000 {
		t.Error("plain protocol write duration wrong")
	}
}

func TestIncrementalReducesOverhead(t *testing.T) {
	c := Config{Kind: KindUncoordinated, Interval: 5 * simtime.Millisecond, Write: simtime.Millisecond,
		Offset: "aligned"}
	base := runWith(t, ep(t, 8, 60, simtime.Millisecond))

	full := mustNew[*Uncoordinated](t, c, nil)
	rFull := runWith(t, ep(t, 8, 60, simtime.Millisecond), full)

	c.Incremental = IncrementalParams{FullEvery: 5, Fraction: 0.2}
	inc := mustNew[*Uncoordinated](t, c, nil)
	rInc := runWith(t, ep(t, 8, 60, simtime.Millisecond), inc)

	if rInc.Makespan >= rFull.Makespan {
		t.Errorf("incremental %v >= full %v", rInc.Makespan, rFull.Makespan)
	}
	if rInc.Makespan <= base.Makespan {
		t.Error("incremental checkpointing should still cost something")
	}
	if inc.Name() != "uncoordinated-aligned-incremental" {
		t.Errorf("name = %q", inc.Name())
	}
}

func TestTwoLevelParamsValidate(t *testing.T) {
	good := TwoLevelParams{
		LocalInterval: 2 * simtime.Millisecond, LocalWrite: 100 * simtime.Microsecond,
		GlobalInterval: 20 * simtime.Millisecond, GlobalWrite: 2 * simtime.Millisecond,
	}
	if err := good.Validate(); err != nil {
		t.Error(err)
	}
	bad := []TwoLevelParams{
		{LocalInterval: 0, GlobalInterval: 1},
		{LocalInterval: 1, GlobalInterval: 0},
		{LocalInterval: 1, GlobalInterval: 1, LocalWrite: -1},
		{LocalInterval: 1, GlobalInterval: 1, GlobalWrite: -1},
		{LocalInterval: 10, GlobalInterval: 1}, // inverted levels
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad params %d accepted", i)
		}
	}
}

func TestTwoLevelRuns(t *testing.T) {
	p := TwoLevelParams{
		LocalInterval: 2 * simtime.Millisecond, LocalWrite: 100 * simtime.Microsecond,
		GlobalInterval: 20 * simtime.Millisecond, GlobalWrite: 2 * simtime.Millisecond,
	}
	tl := mustNew[*TwoLevel](t, Config{Kind: KindTwoLevel, TwoLevel: p}, nil)
	runWith(t, stencil(t, 16, 60, simtime.Millisecond), tl)
	local, global := tl.LevelWrites()
	if local == 0 {
		t.Error("no local writes")
	}
	if global == 0 {
		t.Error("no global writes")
	}
	if local <= global {
		t.Errorf("local writes %d should far exceed global %d", local, global)
	}
	if tl.Stats().Writes != local+global {
		t.Errorf("stats writes %d != %d + %d", tl.Stats().Writes, local, global)
	}
	if tl.Stats().Rounds == 0 {
		t.Error("no global rounds")
	}
	for r := 0; r < 16; r++ {
		// The local level commits every 2 ms against the global level's
		// 20 ms, so every rank ends with a local line fresher than the
		// last global one.
		if tl.local.last[r] <= tl.coord.lineAt {
			t.Errorf("rank %d local line %v not fresher than global %v",
				r, tl.local.last[r], tl.coord.lineAt)
		}
		if tl.ProgressAtCheckpoint(r) < tl.GlobalProgressAt(r) {
			t.Errorf("rank %d local progress behind global", r)
		}
	}
	if tl.Name() != "twolevel" {
		t.Errorf("name = %q", tl.Name())
	}
}

func TestTwoLevelLocalLineIsFresher(t *testing.T) {
	// With a 10x interval ratio, the local line should normally be fresher
	// than the global one, making recovery cheap.
	p := TwoLevelParams{
		LocalInterval: simtime.Millisecond, LocalWrite: 50 * simtime.Microsecond,
		GlobalInterval: 10 * simtime.Millisecond, GlobalWrite: simtime.Millisecond,
	}
	tl := mustNew[*TwoLevel](t, Config{Kind: KindTwoLevel, TwoLevel: p}, nil)
	runWith(t, stencil(t, 9, 40, simtime.Millisecond), tl)
	fresher := 0
	for r := 0; r < 9; r++ {
		if tl.local.last[r] > tl.coord.lineAt {
			fresher++
		}
	}
	if fresher < 5 {
		t.Errorf("only %d/9 ranks have a local line fresher than global", fresher)
	}
}
