package checkpoint

import (
	"testing"

	"checkpointsim/internal/goal"
	"checkpointsim/internal/network"
	"checkpointsim/internal/sim"
	"checkpointsim/internal/simtime"
	"checkpointsim/internal/storage"
)

// Store-routed protocol tests: the legacy path must be byte-identical with a
// nil or Unlimited store, and bandwidth-limited stores must stretch
// simultaneous writers while leaving staggered ones at the lone-writer
// duration.

func runSeed(t *testing.T, prog *goal.Program, seed uint64, agents ...sim.Agent) *sim.Result {
	t.Helper()
	e, err := sim.New(sim.Config{Net: network.DefaultParams(), Program: prog, Agents: agents, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// mustStore builds a store or fails the test.
func mustStore(t *testing.T, p storage.Params) *storage.Store {
	t.Helper()
	s, err := storage.New(p)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestUnlimitedStoreByteIdentical(t *testing.T) {
	// Every protocol must produce the exact same result with no store and
	// with the Unlimited store: same makespan, same seizure accounting, no
	// io-wait.
	ms := simtime.Millisecond
	configs := map[string]Config{
		"coordinated": {Kind: KindCoordinated, Interval: 10 * ms, Write: ms},
		"uncoordinated-staggered": {Kind: KindUncoordinated, Interval: 10 * ms, Write: ms,
			Offset: "staggered", Logging: LogParams{Alpha: 500}},
		"uncoordinated-random-incremental": {Kind: KindUncoordinated, Interval: 10 * ms, Write: ms,
			Offset: "random", Incremental: IncrementalParams{FullEvery: 3, Fraction: 0.25}},
		"nonblocking": {Kind: KindNonBlocking, Interval: 10 * ms, Write: ms,
			Window: 4 * ms, Slowdown: 1.1},
		"partner": {Kind: KindPartner, Interval: 10 * ms, Write: ms, CkptBytes: 1 << 16},
		"twolevel": {Kind: KindTwoLevel, TwoLevel: TwoLevelParams{
			LocalInterval: 5 * ms, LocalWrite: 200 * simtime.Microsecond,
			GlobalInterval: 20 * ms, GlobalWrite: 2 * ms}},
	}
	for name, c := range configs {
		c := c
		t.Run(name, func(t *testing.T) {
			prog := stencil(t, 8, 30, simtime.Millisecond)
			legacy := runSeed(t, prog, 7, mustNew[Protocol](t, c, nil))
			unlimited := runSeed(t, prog, 7, mustNew[Protocol](t, c, storage.Unlimited()))
			if legacy.Makespan != unlimited.Makespan {
				t.Errorf("makespan drifted: legacy %v, unlimited %v",
					legacy.Makespan, unlimited.Makespan)
			}
			if lw, uw := legacy.SeizedTime[ReasonWrite], unlimited.SeizedTime[ReasonWrite]; lw != uw {
				t.Errorf("write accounting drifted: %v vs %v", lw, uw)
			}
			if w, ok := unlimited.SeizedTime[ReasonIOWait]; ok {
				t.Errorf("unlimited store accumulated io-wait %v", w)
			}
		})
	}
}

func TestCoordinatedContentionStretchesWrites(t *testing.T) {
	// 8 ranks write 1e6 bytes each simultaneously through an 8 GB/s PFS with
	// a 1 GB/s per-writer cap. Alone each write takes 1ms; together they
	// share 8 GB/s -> 1 GB/s each... wait, 8 writers x 1 GB/s cap = 8 GB/s =
	// aggregate, so the cap binds and there is no slowdown. Drop the
	// aggregate to 2 GB/s: each write drains at 0.25 GB/s, taking 4ms — 3ms
	// of io-wait per write.
	st := mustStore(t, storage.Params{AggregateBytesPerSec: 2e9, PerWriterBytesPerSec: 1e9})
	c := mustNew[*Coordinated](t, Config{Kind: KindCoordinated, Interval: 20 * simtime.Millisecond,
		Write: simtime.Millisecond, Bytes: 1e6}, st)
	r := runSeed(t, ep(t, 8, 40, simtime.Millisecond), 7, c)
	if c.Stats().Rounds == 0 {
		t.Fatal("no coordinated rounds completed")
	}
	iow, ok := r.SeizedTime[ReasonIOWait]
	if !ok || iow == 0 {
		t.Fatalf("contended coordinated run shows no io-wait: %v", r.SeizedTime)
	}
	// The commit sweep staggers write starts behind earlier seizures, so the
	// overlap is partial rather than all-8-at-once; the nominal accounting
	// must stay exactly 1ms per write with all contention in io-wait.
	writes := r.SeizedCount[ReasonWrite]
	if avg := r.SeizedTime[ReasonWrite] / simtime.Duration(writes); avg != simtime.Millisecond {
		t.Errorf("nominal write accounting = %v per write, want 1ms", avg)
	}
	if avgWait := iow / simtime.Duration(writes); avgWait < 100*simtime.Microsecond {
		t.Errorf("avg io-wait per write = %v, want a clear contention signal", avgWait)
	}
	if st.Stats().PeakWriters < 2 {
		t.Errorf("peak writers = %d, want overlapping writes", st.Stats().PeakWriters)
	}
}

func TestStaggeredAvoidsContention(t *testing.T) {
	// Same storage, but staggered uncoordinated timers: writes (1ms each,
	// interval 16ms across 8 ranks -> 2ms apart) never overlap, so no
	// io-wait accumulates at all.
	st := mustStore(t, storage.Params{AggregateBytesPerSec: 2e9, PerWriterBytesPerSec: 1e9})
	u := mustNew[*Uncoordinated](t, Config{Kind: KindUncoordinated, Interval: 16 * simtime.Millisecond,
		Write: simtime.Millisecond, Bytes: 1e6, Offset: "staggered"}, st)
	r := runSeed(t, ep(t, 8, 40, simtime.Millisecond), 7, u)
	if u.Stats().Writes == 0 {
		t.Fatal("no writes completed")
	}
	if iow := r.SeizedTime[ReasonIOWait]; iow != 0 {
		t.Errorf("staggered writers accumulated io-wait %v", iow)
	}
	if st.Stats().WaitTime != 0 {
		t.Errorf("store-level wait %v for non-overlapping writers", st.Stats().WaitTime)
	}
}

func TestBytesDerivedFromWriteDuration(t *testing.T) {
	// Params.Bytes == 0: the image size comes from Write at the lone-writer
	// rate, so a solo store write keeps the legacy duration exactly.
	st := mustStore(t, storage.Params{AggregateBytesPerSec: 4e9})
	u := mustNew[*Uncoordinated](t, Config{Kind: KindUncoordinated, Interval: 10 * simtime.Millisecond,
		Write: 2 * simtime.Millisecond, Offset: "staggered"}, st)
	r := runSeed(t, ep(t, 2, 30, simtime.Millisecond), 7, u)
	writes := r.SeizedCount[ReasonWrite]
	if writes == 0 {
		t.Fatal("no writes")
	}
	if avg := r.SeizedTime[ReasonWrite] / simtime.Duration(writes); avg != 2*simtime.Millisecond {
		t.Errorf("solo store write = %v, want the legacy 2ms", avg)
	}
	if st.Stats().Bytes != writes*8e6 {
		t.Errorf("drained %d bytes over %d writes, want 8e6 each", st.Stats().Bytes, writes)
	}
}

func TestNonBlockingDrainExtendsWindow(t *testing.T) {
	// The background drain is slower than the window: 8 ranks x 4e6 bytes
	// through 1 GB/s aggregate takes 32ms, far beyond the 4ms window, so
	// rounds span at least the drain time. With an unlimited store the same
	// configuration finishes each round near the window length.
	prog := ep(t, 8, 100, simtime.Millisecond)
	build := func(st *storage.Store) *NonBlockingCoordinated {
		return mustNew[*NonBlockingCoordinated](t, Config{Kind: KindNonBlocking,
			Interval: 10 * simtime.Millisecond, Write: simtime.Millisecond, Bytes: 4e6,
			Window: 4 * simtime.Millisecond, Slowdown: 1.05}, st)
	}
	fast := build(storage.Unlimited())
	runSeed(t, prog, 7, fast)
	slow := build(mustStore(t, storage.Params{AggregateBytesPerSec: 1e9}))
	runSeed(t, prog, 7, slow)
	if fast.Stats().Rounds == 0 || slow.Stats().Rounds == 0 {
		t.Fatalf("rounds: fast %d, slow %d", fast.Stats().Rounds, slow.Stats().Rounds)
	}
	avgFast := fast.Stats().RoundSpan / simtime.Duration(fast.Stats().Rounds)
	avgSlow := slow.Stats().RoundSpan / simtime.Duration(slow.Stats().Rounds)
	if avgSlow < 4*avgFast {
		t.Errorf("drain-limited round span %v not clearly above window-limited %v",
			avgSlow, avgFast)
	}
}

func TestTwoLevelTiersIndependent(t *testing.T) {
	// Node tier limited, global tier unlimited: local writes are aligned
	// (they contend within a node), global writes keep the legacy duration.
	st := mustStore(t, storage.Params{NodeBytesPerSec: 1e9, RanksPerNode: 4})
	tl := mustNew[*TwoLevel](t, Config{Kind: KindTwoLevel, TwoLevel: TwoLevelParams{
		LocalInterval: 5 * simtime.Millisecond, LocalWrite: 500 * simtime.Microsecond,
		GlobalInterval: 25 * simtime.Millisecond, GlobalWrite: 2 * simtime.Millisecond}}, st)
	r := runSeed(t, ep(t, 8, 60, simtime.Millisecond), 7, tl)
	local, global := tl.LevelWrites()
	if local == 0 || global == 0 {
		t.Fatalf("writes: local %d, global %d", local, global)
	}
	// Aligned local timers: 4 ranks per node write together, each at 1/4 of
	// the node bandwidth -> io-wait appears.
	if iow := r.SeizedTime[ReasonIOWait]; iow == 0 {
		t.Error("aligned local writes through a shared node buffer show no io-wait")
	}
	// All drained bytes belong to the node tier (global is unconstrained and
	// takes the legacy path).
	want := local * 5e5 // 500us at 1 GB/s
	if st.Stats().Bytes != want {
		t.Errorf("store drained %d bytes, want %d (local level only)", st.Stats().Bytes, want)
	}
}

func TestParamsValidateStorageFields(t *testing.T) {
	p := Params{Interval: simtime.Second, Write: simtime.Millisecond, Bytes: -1}
	if err := p.Validate(); err == nil {
		t.Error("negative Bytes accepted")
	}
}
