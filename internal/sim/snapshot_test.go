package sim

// Engine-level snapshot/restore tests: round-trip determinism on random
// programs, a corruption table proving hostile blobs error instead of
// panicking or resuming wrong, and a native fuzz target hammering the
// decoder validation paths. The exp layer re-proves byte-identity at the
// experiment level (internal/exp/resume_test.go); these tests pin the
// engine contract in isolation.

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"checkpointsim/internal/goal"
	"checkpointsim/internal/network"
	"checkpointsim/internal/rng"
	"checkpointsim/internal/simtime"
	"checkpointsim/internal/snapshot"
)

// snapTestAgent is a small Resumable agent that exercises every kind of
// pending work: a periodic owned timer that seizes CPU on a rotating rank
// and draws from the engine RNG, and — every few fires — an exchange that
// holds and slows a rank until a control message's continuation runs, and
// an open-ended seizure released by a later timer. Its state (the firing
// count) and its pending work all matter to the remainder of the run. It
// reads whether a rank's exchange is in flight from the rank's gate and
// factor, so OnTimer tolerates any kind and argument, and fuzzed snapshots
// that restore cleanly also run without panicking.
type snapTestAgent struct {
	ctx    *Context
	period simtime.Duration
	fires  int64
}

// snapTestAgent work kinds; all but snapFire take a rank argument.
const (
	snapFire      uint8 = iota
	snapDelivered       // the rank's exchange message was processed
	snapGranted         // the rank's open seizure got the CPU
	snapRelease         // the rank's open seizure ends
)

func (a *snapTestAgent) Init(ctx *Context) {
	a.ctx = ctx
	ctx.AfterOwned(a.period, a, snapFire, 0)
}

func (a *snapTestAgent) OnTimer(kind uint8, arg int64) {
	n := a.ctx.NumRanks()
	rank := int(uint64(arg) % uint64(n))
	switch kind {
	case snapFire:
		a.fires++
		rank = int(uint64(a.fires) % uint64(n))
		a.ctx.SeizeCPU(rank, simtime.Duration(500+a.ctx.Rand().Intn(2000)), "snaptest", Call{})
		if st := &a.ctx.eng.ranks[rank]; a.fires%3 == 0 && !st.held && !st.scaled {
			a.ctx.HoldApp(rank, "snaphold")
			a.ctx.ScaleCPU(rank, 1.5)
			a.ctx.SendControl(rank, (rank+1)%n, 64, Call{Owner: a, Kind: snapDelivered, Arg: int64(rank)})
		}
		if a.fires%4 == 0 {
			a.ctx.SeizeCPUDynamic(rank, 300, "snapwrite", "snapwait",
				Call{Owner: a, Kind: snapGranted, Arg: int64(rank)}, Call{})
		}
		if a.ctx.OpsRemaining() > 0 {
			a.ctx.AfterOwned(a.period, a, snapFire, 0)
		}
	case snapDelivered:
		a.ctx.ReleaseHold(rank)
		a.ctx.ReleaseScale(rank)
	case snapGranted:
		a.ctx.AfterOwned(simtime.Duration(200+a.ctx.Rand().Intn(400)), a, snapRelease, int64(rank))
	case snapRelease:
		a.ctx.ReleaseSeizure(rank)
	}
}

func (a *snapTestAgent) SnapshotState(ctx *Context, c *snapshot.Codec) {
	a.ctx = ctx
	snapshot.Int(c, &a.fires)
}

// snapConfig builds the canonical test configuration for seed: a random
// program (shared generator with fuzz_test.go) plus the periodic agent.
// Fresh agent objects each call — restore must fully overwrite them anyway,
// but the tests should not depend on that.
func snapConfig(seed uint64, collect func(Snapshot)) Config {
	net := network.DefaultParams()
	net.RendezvousThreshold = 64 * 1024
	prog := randomProgram(rng.New(seed))
	cfg := Config{Net: net, Program: prog,
		Agents: []Agent{&snapTestAgent{period: 40_000}},
		Seed:   seed, MaxEvents: 50_000_000}
	if collect != nil {
		cfg.SnapshotEvery = 1
		cfg.OnSnapshot = collect
	}
	return cfg
}

// monolithicRun executes the run uninterrupted, capturing a snapshot after
// every event (cadence 1) and the trace stream.
func monolithicRun(t *testing.T, seed uint64) ([]Snapshot, []TraceEvent, *Result) {
	t.Helper()
	var snaps []Snapshot
	var trace []TraceEvent
	cfg := snapConfig(seed, func(s Snapshot) { snaps = append(snaps, s) })
	cfg.Trace = func(ev TraceEvent) { trace = append(trace, ev) }
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Every instant between two events is snapshot-able: one snapshot per
	// event but the last.
	if int64(len(snaps)) != res.Events-1 {
		t.Fatalf("seed %d: %d snapshots over %d events, want one after every event but the last",
			seed, len(snaps), res.Events)
	}
	for i, s := range snaps {
		if s.Events != int64(i+1) {
			t.Fatalf("seed %d: snapshot %d taken after event %d", seed, i, s.Events)
		}
	}
	return snaps, trace, res
}

// TestSnapshotRoundTrip: for several random programs, restoring any
// mid-run snapshot into a fresh engine reproduces the remainder of the run
// exactly — result, metrics, event count, and the trace suffix.
func TestSnapshotRoundTrip(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42, 1234} {
		snaps, trace, res := monolithicRun(t, seed)
		// First, middle, and last snapshot, plus one taken with every kind of
		// pending work live.
		for _, i := range []int{0, len(snaps) / 2, len(snaps) - 1, liveIndex(t, seed)} {
			s := snaps[i]
			var suffix []TraceEvent
			cfg := snapConfig(seed, nil)
			cfg.Trace = func(ev TraceEvent) { suffix = append(suffix, ev) }
			eng, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.Restore(s.Blob); err != nil {
				t.Fatalf("seed %d snapshot %d (t=%v): %v", seed, i, s.Time, err)
			}
			got, err := eng.Run()
			if err != nil {
				t.Fatalf("seed %d snapshot %d: resumed run: %v", seed, i, err)
			}
			if got.Makespan != res.Makespan || got.Events != res.Events || got.Metrics != res.Metrics {
				t.Errorf("seed %d snapshot %d (t=%v, %d events): resumed run diverged "+
					"(makespan %v vs %v, events %d vs %d)",
					seed, i, s.Time, s.Events, got.Makespan, res.Makespan, got.Events, res.Events)
				continue
			}
			want := trace[s.TraceEvents:]
			if len(suffix) != len(want) {
				t.Errorf("seed %d snapshot %d: trace suffix has %d records, want %d",
					seed, i, len(suffix), len(want))
				continue
			}
			for j := range want {
				if suffix[j] != want[j] {
					t.Errorf("seed %d snapshot %d: trace record %d diverged:\n got %+v\nwant %+v",
						seed, i, j, suffix[j], want[j])
					break
				}
			}
		}
	}
}

// TestSnapshottedProgramCollectable: snapshotting a run must not pin its
// program. The snapshot config digest hashes the whole program, and a
// memo of that hash kept anywhere but on the program itself (a global map
// keyed by *goal.Program, say) keeps every program ever snapshotted
// reachable for the life of the process — gigabytes over a sweep of large
// runs.
func TestSnapshottedProgramCollectable(t *testing.T) {
	var collected atomic.Bool
	func() {
		snaps := 0
		cfg := snapConfig(1, func(Snapshot) { snaps++ })
		runtime.SetFinalizer(cfg.Program, func(*goal.Program) { collected.Store(true) })
		eng, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		if snaps == 0 {
			t.Fatal("the run took no snapshots")
		}
	}()
	for i := 0; i < 100 && !collected.Load(); i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if !collected.Load() {
		t.Fatal("the program of a finished, snapshotted run is still reachable after its engine was dropped")
	}
}

// liveIndex returns the index of the first cadence-1 snapshot of seed's run
// taken while a hold gate, a CPU scale, a control message carrying its
// continuation and a granted open-ended seizure are all live.
func liveIndex(t testing.TB, seed uint64) int {
	t.Helper()
	var eng *Engine
	idx, n := -1, 0
	cfg := snapConfig(seed, func(Snapshot) {
		if idx < 0 && allPendingLive(eng) {
			idx = n
		}
		n++
	})
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if idx < 0 {
		t.Fatalf("seed %d: no snapshot with every kind of pending work live", seed)
	}
	return idx
}

// allPendingLive reports whether e holds an open hold gate, a CPU scale, a
// control message with a continuation, and a granted open-ended seizure.
func allPendingLive(e *Engine) bool {
	var held, scaled, ctl, open bool
	scan := func(j *job) {
		ctl = ctl || jobHasMsg(j.kind) && e.msgs[j.arg].deliver.owner != 0
	}
	for i := range e.ranks {
		st := &e.ranks[i]
		held = held || st.held
		scaled = scaled || st.scaled
		if st.running {
			scan(&st.runningJob)
			open = open || st.runningJob.kind == jobSeizeOpen
		}
		for _, j := range queued(&e.jobs, st.ctlQ) {
			scan(&j)
		}
	}
	e.queue.Items(func(_ simtime.Time, _ uint64, ev event) {
		ctl = ctl || ev.kind == evArrive && e.msgs[ev.id].deliver.owner != 0
	})
	return held && scaled && ctl && open
}

// restoreInto builds a fresh engine for seed and restores blob into it.
func restoreInto(t *testing.T, seed uint64, blob []byte) error {
	t.Helper()
	eng, err := New(snapConfig(seed, nil))
	if err != nil {
		t.Fatal(err)
	}
	return eng.Restore(blob)
}

// TestSnapshotCorruptionTable: every way a blob can be damaged yields an
// error — never a panic, never a silently wrong resume.
func TestSnapshotCorruptionTable(t *testing.T) {
	const seed = 42
	snaps, _, _ := monolithicRun(t, seed)
	blob := snaps[len(snaps)/2].Blob

	t.Run("truncation", func(t *testing.T) {
		// Every prefix of the sealed blob, and — to get past the digest
		// check into the field decoders — every 7th prefix of the payload
		// re-sealed with a valid digest.
		for n := 0; n < len(blob); n++ {
			if err := restoreInto(t, seed, blob[:n]); err == nil {
				t.Fatalf("restore accepted a %d-byte prefix of a %d-byte blob", n, len(blob))
			}
		}
		_, payload, err := snapshot.Open(blob)
		if err != nil {
			t.Fatal(err)
		}
		for n := 0; n < len(payload); n += 7 {
			resealed := snapshot.Seal(snapshot.FormatVersion, payload[:n])
			if err := restoreInto(t, seed, resealed); err == nil {
				t.Fatalf("restore accepted a re-sealed %d-byte payload prefix", n)
			}
		}
	})

	t.Run("bit-flips", func(t *testing.T) {
		// Single-bit flips in the sealed blob are all caught by the digest;
		// flips in the payload re-sealed with a fresh digest must be caught
		// by field validation. Sampled stride keeps this fast.
		for i := 0; i < len(blob); i += 11 {
			bad := append([]byte(nil), blob...)
			bad[i] ^= 1 << (i % 8)
			if err := restoreInto(t, seed, bad); err == nil {
				t.Fatalf("restore accepted blob with byte %d flipped", i)
			}
		}
		_, payload, err := snapshot.Open(blob)
		if err != nil {
			t.Fatal(err)
		}
		diverged := 0
		for i := 0; i < len(payload); i += 5 {
			mut := append([]byte(nil), payload...)
			mut[i] ^= 1 << (i % 8)
			resealed := snapshot.Seal(snapshot.FormatVersion, mut)
			// A payload flip may land in a value the decoder cannot
			// distinguish from legitimate state (a counter, a duration);
			// those restore fine and merely simulate a different world.
			// What must never happen is a panic — which the harness turns
			// into a test failure — so an error OR a clean restore both
			// pass. Count the rejections to prove validation actually runs.
			if err := restoreInto(t, seed, resealed); err != nil {
				diverged++
			}
		}
		if diverged == 0 {
			t.Error("no payload mutation was rejected; is field validation wired up?")
		}
	})

	t.Run("version-mismatch", func(t *testing.T) {
		_, payload, _ := snapshot.Open(blob)
		bad := snapshot.Seal(snapshot.FormatVersion+1, payload)
		if err := restoreInto(t, seed, bad); !errors.Is(err, snapshot.ErrVersion) {
			t.Errorf("future format version: %v, want ErrVersion", err)
		}
		// Older blobs are not read at all, not even a current payload
		// under the previous version's seal.
		old := snapshot.Seal(snapshot.FormatVersion-1, payload)
		if err := restoreInto(t, seed, old); !errors.Is(err, snapshot.ErrVersion) {
			t.Errorf("previous format version: %v, want ErrVersion", err)
		}
	})

	t.Run("digest-flip", func(t *testing.T) {
		bad := append([]byte(nil), blob...)
		bad[len(bad)-1] ^= 0x01
		if err := restoreInto(t, seed, bad); !errors.Is(err, snapshot.ErrDigest) {
			t.Errorf("flipped digest: %v, want ErrDigest", err)
		}
	})

	t.Run("config-mismatch", func(t *testing.T) {
		// Same program, different seed: the config digest embedded in the
		// blob must refuse the restore.
		cfg := snapConfig(seed, nil)
		cfg.Seed = seed + 1
		eng, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Restore(blob); !errors.Is(err, ErrConfigMismatch) {
			t.Errorf("different seed: %v, want ErrConfigMismatch", err)
		}
	})

	t.Run("restore-after-run", func(t *testing.T) {
		eng, err := New(snapConfig(seed, nil))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		if err := eng.Restore(blob); err == nil {
			t.Error("Restore accepted on an engine that already ran")
		}
	})

	t.Run("double-restore", func(t *testing.T) {
		eng, err := New(snapConfig(seed, nil))
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Restore(blob); err != nil {
			t.Fatal(err)
		}
		if err := eng.Restore(blob); err == nil {
			t.Error("second Restore accepted")
		}
	})

	t.Run("owner-past-owners", func(t *testing.T) {
		// Owned work names its owner by position, so a position past the
		// restoring engine's owners is refused wherever owned work decodes:
		// a seizure's grant and completion, a control message's delivery
		// and a queued timer. Each blob comes from an engine that registered
		// one owner more than the restoring engine does. A store's drained
		// Call decodes through SnapshotCall; see internal/storage
		// TestRestoreRefusesDrainPastOwners.
		seizure := func(e *Engine) *seizeRec {
			for i := range e.ranks {
				st := &e.ranks[i]
				if st.running && jobHasSeize(st.runningJob.kind) {
					return &e.seizes[st.runningJob.arg]
				}
				if q := queued(&e.jobs, st.seizeQ); len(q) > 0 {
					return &e.seizes[q[0].arg]
				}
			}
			return nil
		}
		for name, bad := range map[string]func(e *Engine, id int32) bool{
			"granted": func(e *Engine, id int32) bool {
				sz := seizure(e)
				if sz != nil {
					sz.granted.owner = id
				}
				return sz != nil
			},
			"done": func(e *Engine, id int32) bool {
				sz := seizure(e)
				if sz != nil {
					sz.done.owner = id
				}
				return sz != nil
			},
			"deliver": func(e *Engine, id int32) bool {
				found := false
				e.queue.Items(func(_ simtime.Time, _ uint64, ev event) {
					if !found && ev.kind == evArrive && e.msgs[ev.id].kind == msgCtl {
						e.msgs[ev.id].deliver.owner, found = id, true
					}
				})
				return found
			},
			"timer": func(e *Engine, id int32) bool {
				e.queue.Push(e.now, event{kind: evTimer, work: owned{owner: id}})
				return true
			},
		} {
			var corrupt []byte
			for _, s := range snaps {
				e, err := New(snapConfig(seed, nil))
				if err != nil {
					t.Fatal(err)
				}
				if err := e.Restore(s.Blob); err != nil {
					t.Fatal(err)
				}
				e.ctx.OwnTimers(&closures{})
				if bad(e, int32(len(e.owners))) {
					corrupt = e.encodeSnapshot()
					break
				}
			}
			if corrupt == nil {
				t.Fatalf("%s: no snapshot to corrupt", name)
			}
			if err := restoreInto(t, seed, corrupt); !errors.Is(err, snapshot.ErrCorrupt) {
				t.Errorf("%s: owner past the registered owners: %v, want ErrCorrupt", name, err)
			}
		}
	})

	t.Run("poisoned-after-failure", func(t *testing.T) {
		eng, err := New(snapConfig(seed, nil))
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Restore(blob[:len(blob)/2]); err == nil {
			t.Fatal("truncated restore accepted")
		}
		if _, err := eng.Run(); err == nil {
			t.Error("Run accepted on a poisoned (half-restored) engine")
		}
	})
}

// corruptBlob restores seed's snapshots in turn until one has a rank r
// running a calc job for which bad(e, r) corrupts the restored engine, and
// returns that engine's snapshot: digest-intact, but describing a state
// Run cannot finish.
func corruptBlob(t testing.TB, seed uint64, bad func(e *Engine, r int) bool) []byte {
	t.Helper()
	var snaps []Snapshot
	eng, err := New(snapConfig(seed, func(s Snapshot) { snaps = append(snaps, s) }))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	for _, s := range snaps {
		e, err := New(snapConfig(seed, nil))
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Restore(s.Blob); err != nil {
			t.Fatal(err)
		}
		for r := range e.ranks {
			if st := &e.ranks[r]; st.running && st.runningJob.kind == jobCalc && bad(e, r) {
				return e.encodeSnapshot()
			}
		}
	}
	t.Fatalf("seed %d: no snapshot to corrupt", seed)
	return nil
}

// renameOp rewrites rank r's running op to the first other op whose
// dependency counter satisfies want, or to NoOp when want is nil.
func renameOp(want func(d int32) bool) func(*Engine, int) bool {
	return func(e *Engine, r int) bool {
		j := &e.ranks[r].runningJob
		id := slices.IndexFunc(e.depsLeft, func(d int32) bool { return want != nil && want(d) })
		if want != nil && (id < 0 || int32(id) == j.arg) {
			return false
		}
		j.arg = int32(id) // -1 is goal.NoOp
		return true
	}
}

// doneTwice queues a second completion for rank r's running job.
func doneTwice(e *Engine, r int) bool {
	e.queue.Push(e.now, event{kind: evJobDone, id: int32(r)})
	return true
}

// negativeCost gives the first queued application job a negative cost.
func negativeCost(e *Engine, _ int) bool {
	for i := range e.ranks {
		if q := e.ranks[i].appQ; !q.empty() {
			e.jobs.nodes[q.head].val.cost = -1
			return true
		}
	}
	return false
}

// TestRestoreRefusesBadOps: a running job naming NoOp, a completed op, an
// op still waiting on its dependencies, an op that other pending work
// already names or an op of another rank, an op completed while one of its
// dependencies is open, a completion bit past the last op, a second
// completion queued for a running job, a queued job with a negative cost, a posted receive or unexpected
// message in another rank's list, or an unexpected message that no
// receive can match, is corrupt — Restore fails instead of handing Run an
// op it would index with -1, complete twice, never complete or credit to
// the wrong rank, a completion before the present, or a match it cannot
// make. So is an arrival table on a fabric-free engine, the one kind of
// side data such an engine never keeps.
func TestRestoreRefusesBadOps(t *testing.T) {
	refused := func(name string, seed uint64, bad func(*Engine, int) bool) {
		eng, err := New(snapConfig(seed, nil))
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Restore(corruptBlob(t, seed, bad)); !errors.Is(err, snapshot.ErrCorrupt) {
			if err == nil {
				_, err = eng.Run()
			}
			t.Errorf("%s: %v, want ErrCorrupt", name, err)
		}
	}
	for name, bad := range map[string]func(*Engine, int) bool{
		"noop":     renameOp(nil),
		"finished": renameOp(func(d int32) bool { return d == -1 }),
		"waiting":  renameOp(func(d int32) bool { return d > 0 }),
		"named":    renameOp(func(d int32) bool { return d == 0 }),
		"wrong rank": func(e *Engine, r int) bool {
			for r2 := range e.ranks {
				if st := &e.ranks[r2]; r2 != r && st.running && st.runningJob.kind == jobCalc {
					a, b := &e.ranks[r].runningJob, &st.runningJob
					a.arg, b.arg = b.arg, a.arg
					return true
				}
			}
			return false
		},
		"done before its dependency": func(e *Engine, _ int) bool {
			// An op that nothing depends on, so only its own open
			// dependency tells it was never run.
			id := slices.IndexFunc(e.depsLeft, func(d int32) bool { return d > 0 })
			for ; id >= 0 && id < len(e.depsLeft); id++ {
				if e.depsLeft[id] > 0 && len(e.prog.Outs(goal.OpID(id))) == 0 {
					e.depsLeft[id] = -1
					e.opsLeft--
					return true
				}
			}
			return false
		},
		"done twice": doneTwice,
		"posted elsewhere": func(e *Engine, _ int) bool {
			for i := range e.ranks {
				if from, to := &e.ranks[i], &e.ranks[(i+1)%len(e.ranks)]; !from.posted.empty() {
					e.posts.push(&to.posted, e.posts.pop(&from.posted))
					from.postedN--
					to.postedN++
					return true
				}
			}
			return false
		},
		"unexpected elsewhere": func(e *Engine, _ int) bool {
			for i := range e.ranks {
				if from, to := &e.ranks[i], &e.ranks[(i+1)%len(e.ranks)]; !from.unexpected.empty() {
					e.unexps.push(&to.unexpected, e.unexps.pop(&from.unexpected))
					from.unexpectedN--
					to.unexpectedN++
					return true
				}
			}
			return false
		},
		"unexpected control": func(e *Engine, _ int) bool {
			for i := range e.ranks {
				if q := e.ranks[i].unexpected; !q.empty() {
					e.msgs[e.unexps.nodes[q.head].val].kind = msgCtl
					return true
				}
			}
			return false
		},
		"negative cost": negativeCost,
		"arrival table": func(e *Engine, r int) bool {
			e.sideOf(r).lastArrival = make([]simtime.Time, len(e.ranks))
			return true
		},
	} {
		refused(name, 42, bad)
	}
	// Seed 42's 16 ops fill the completion bitmap exactly; seed 1's 84 leave
	// four bits of its last byte past the last op. Setting one writes a
	// completed op past the last.
	refused("bits past the last op", 1, func(e *Engine, _ int) bool {
		if len(e.depsLeft)%8 == 0 {
			return false
		}
		e.depsLeft = append(e.depsLeft, -1)
		return true
	})
}

// FuzzSnapshotDecode feeds arbitrary bytes to Engine.Restore through three
// doors of increasing depth: the raw blob (exercises framing), the bytes
// re-sealed as a payload (exercises the config-digest gate), and the bytes
// re-sealed behind the engine's real config digest (exercises every field
// decoder and bounds check). The contract under fuzz: an error or a clean
// restore, never a panic. A clean restore must then run without panicking.
// One seed is taken with every kind of pending work live (see liveIndex),
// so the hold, scale, continuation and open-seizure sections are fuzzed.
// Every engine here is capped at fuzzMaxEvents, so an input that restores
// cleanly but never finishes (its agent timers keep firing) costs
// microseconds, not the seconds snapConfig's cap would allow.
//
// Smoke-run beyond the seed corpus with:
//
//	go test -fuzz=FuzzSnapshotDecode -fuzztime=10s ./internal/sim
func FuzzSnapshotDecode(f *testing.F) {
	const seed = 42
	// fuzzMaxEvents is ten times the 46 events of the uncorrupted run. The
	// cap is hashed into the config digest, so the seeding run and every
	// fuzzed engine share it.
	const fuzzMaxEvents = 460
	fuzzConfig := func(collect func(Snapshot)) Config {
		cfg := snapConfig(seed, collect)
		cfg.MaxEvents = fuzzMaxEvents
		return cfg
	}
	var snaps []Snapshot
	cfg := fuzzConfig(func(s Snapshot) { snaps = append(snaps, s) })
	eng, err := New(cfg)
	if err != nil {
		f.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		f.Fatal(err)
	}
	_, realPayload, err := snapshot.Open(snaps[len(snaps)/2].Blob)
	if err != nil {
		f.Fatal(err)
	}
	digest := realPayload[:32]
	live := snaps[liveIndex(f, seed)].Blob
	_, livePayload, err := snapshot.Open(live)
	if err != nil {
		f.Fatal(err)
	}

	f.Add([]byte{})
	f.Add(snaps[0].Blob)
	f.Add(snaps[len(snaps)/2].Blob)
	f.Add(live)
	f.Add(append([]byte(nil), livePayload[32:]...))
	f.Add(append([]byte(nil), realPayload...))
	f.Add(append([]byte(nil), realPayload[32:]...)) // digest-stripped payload
	_, noOpPayload, err := snapshot.Open(corruptBlob(f, seed, renameOp(nil)))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(append([]byte(nil), noOpPayload[32:]...)) // a running job naming NoOp
	mid, err := New(fuzzConfig(nil))
	if err != nil {
		f.Fatal(err)
	}
	if err := mid.Restore(snaps[len(snaps)/2].Blob); err != nil {
		f.Fatal(err)
	}
	_, dupPayload, err := snapshot.Open(requeue(f, mid, duplicateTimer))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(append([]byte(nil), dupPayload[32:]...)) // one queued timer twice
	_, negCostPayload, err := snapshot.Open(corruptBlob(f, seed, negativeCost))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(append([]byte(nil), negCostPayload[32:]...)) // a queued job with a negative cost
	mid.cfg.Agents[0].(*snapTestAgent).fires = -100
	_, negFiresPayload, err := snapshot.Open(mid.encodeSnapshot())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(append([]byte(nil), negFiresPayload[32:]...)) // an agent whose fire count is negative
	_, twicePayload, err := snapshot.Open(corruptBlob(f, seed, doneTwice))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(append([]byte(nil), twicePayload[32:]...)) // a running job completed twice
	f.Fuzz(func(t *testing.T, data []byte) {
		fresh := func() *Engine {
			e, err := New(fuzzConfig(nil))
			if err != nil {
				t.Fatal(err)
			}
			return e
		}
		tryRestore := func(blob []byte) {
			e := fresh()
			if err := e.Restore(blob); err != nil {
				return
			}
			if _, err := e.Run(); err != nil {
				// A valid snapshot may still describe a capped run; an
				// error is fine, a panic is not.
				return
			}
		}
		tryRestore(data)
		tryRestore(snapshot.Seal(snapshot.FormatVersion, data))
		tryRestore(snapshot.Seal(snapshot.FormatVersion, append(append([]byte(nil), digest...), data...)))
	})
}

// pinnedSnapshotSHA is the SHA-256 of every cadence-1 blob of seed 1's
// snapConfig run, each prefixed by its length. The hash moves whenever the
// bytes written for a state move. A change of layout, which older blobs
// cannot be read under, also bumps snapshot.FormatVersion; a change of
// what is written within the same layout (the queue's visit order, a
// presence-flagged table left out) only re-pins the hash.
const pinnedSnapshotSHA = "40c9163aa52ddeaaddd1e978cc08ff14a6d9382d2243f1449e999d4225af0751"

// TestSnapshotBytesPinned hashes every snapshot of one run taken at cadence
// 1. snapConfig's run holds every kind of pending work at some event (see
// liveIndex): messages in flight and unexpected, control messages carrying
// continuations, fixed and open-ended seizures queued and running.
func TestSnapshotBytesPinned(t *testing.T) {
	var eng *Engine
	var blobs [][]byte
	var jobKinds [jobSeizeOpen + 1]bool
	unexpected := false
	cfg := snapConfig(1, func(s Snapshot) {
		blobs = append(blobs, s.Blob)
		for i := range eng.ranks {
			st := &eng.ranks[i]
			if st.running {
				jobKinds[st.runningJob.kind] = true
			}
			for _, q := range []list{st.seizeQ, st.ctlQ, st.appQ} {
				for _, j := range queued(&eng.jobs, q) {
					jobKinds[j.kind] = true
				}
			}
			unexpected = unexpected || !st.unexpected.empty()
		}
	})
	cfg.Trace = func(TraceEvent) {} // as monolithicRun: blobs carry the trace count
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	for k, seen := range jobKinds {
		if !seen {
			t.Errorf("no snapshot holds a job of kind %d", k)
		}
	}
	if !unexpected {
		t.Error("no snapshot holds an unexpected message")
	}
	h := sha256.New()
	var n [8]byte
	for _, b := range blobs {
		binary.LittleEndian.PutUint64(n[:], uint64(len(b)))
		h.Write(n[:])
		h.Write(b)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != pinnedSnapshotSHA {
		t.Errorf("%d snapshot blobs hash to %s, pinned %s: the snapshot bytes changed",
			len(blobs), got, pinnedSnapshotSHA)
	}
}

// requeue re-encodes e's snapshot with its queue section rewritten:
// reorder receives each queued event and its encoding in (t, seq) order
// and returns the encodings to write, whose count replaces the queue's
// length. It builds the blobs another encoder, or a corrupt one, would
// have written for the same state.
func requeue(t testing.TB, e *Engine, reorder func(evs []event, enc [][]byte) [][]byte) []byte {
	t.Helper()
	_, payload, err := snapshot.Open(e.encodeSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	var evs []event
	var enc [][]byte
	var items []byte
	e.queue.Items(func(tm simtime.Time, seq uint64, ev event) {
		c := snapshot.Writer()
		e.codeEvent(c, &tm, &seq, &ev)
		evs, enc = append(evs, ev), append(enc, c.Bytes())
		items = append(items, c.Bytes()...)
	})
	n := snapshot.Writer()
	n.Len(len(enc))
	section := append(n.Bytes(), items...)
	if !bytes.HasSuffix(payload, section) {
		t.Fatal("the payload does not end with the queue section")
	}
	out := reorder(evs, enc)
	w := snapshot.Writer()
	w.Len(len(out))
	body := append(append([]byte(nil), payload[:len(payload)-len(section)]...), w.Bytes()...)
	for _, b := range out {
		body = append(body, b...)
	}
	return snapshot.Seal(snapshot.FormatVersion, body)
}

// duplicateTimer writes the queue with its first timer event twice.
func duplicateTimer(evs []event, enc [][]byte) [][]byte {
	i := slices.IndexFunc(evs, func(ev event) bool { return ev.kind == evTimer })
	if i < 0 {
		return enc
	}
	return slices.Insert(slices.Clone(enc), i, enc[i])
}

// TestRestoreQueueTiesDescending restores a re-sealed blob whose queue
// lists its events in descending (t, seq) order, so events tied on time
// come in descending sequence order, as a heap-order encoder could write
// them. The decoder puts them back in (t, seq) order: the run finishes
// with the uninterrupted run's result. Ties are rare in snapConfig's
// random programs; seed 80 is the first whose run queues two events at one
// time.
func TestRestoreQueueTiesDescending(t *testing.T) {
	const seed = 80
	var eng *Engine
	var blob []byte
	cfg := snapConfig(seed, func(Snapshot) {
		if blob != nil {
			return
		}
		tied := false
		var lastT simtime.Time
		n := 0
		eng.queue.Items(func(tm simtime.Time, _ uint64, _ event) {
			tied = tied || n > 0 && tm == lastT
			lastT = tm
			n++
		})
		if tied {
			blob = requeue(t, eng, func(_ []event, enc [][]byte) [][]byte {
				out := slices.Clone(enc)
				slices.Reverse(out)
				return out
			})
		}
	})
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if blob == nil {
		t.Fatal("no snapshot queues two events at one time")
	}
	resumed, err := New(snapConfig(seed, nil))
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.Restore(blob); err != nil {
		t.Fatal(err)
	}
	got, err := resumed.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.CanonicalBytes(), want.CanonicalBytes()) {
		t.Error("resumed result differs from the uninterrupted run's")
	}
}

// TestRestoreRefusesDuplicateQueueItem: a blob whose queue holds one timer
// event twice, under one (t, seq) key, is corrupt — Restore fails instead
// of firing the timer twice.
func TestRestoreRefusesDuplicateQueueItem(t *testing.T) {
	const seed = 42
	snaps, _, _ := monolithicRun(t, seed)
	e, err := New(snapConfig(seed, nil))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Restore(snaps[len(snaps)/2].Blob); err != nil {
		t.Fatal(err)
	}
	blob := requeue(t, e, duplicateTimer)
	fresh, err := New(snapConfig(seed, nil))
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Restore(blob); !errors.Is(err, snapshot.ErrCorrupt) {
		t.Errorf("duplicated queue item: %v, want ErrCorrupt", err)
	}
}

// TestSnapshotSizeFollowsState: a snapshot's size follows the state in
// flight, not the run's length. Halfway through stencil2d at P=64, four
// times the iterations may add only a completion bit per extra op and 8
// bytes a rank (wider times and counters); a varint per op would add about
// a byte per extra op.
func TestSnapshotSizeFollowsState(t *testing.T) {
	const p = 64
	midRun := func(iters int) (blob []byte, ops int) {
		prog := stencil(t, p, iters)
		cfg := Config{Net: network.DefaultParams(), Program: prog, Seed: 1}
		eng, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		cfg.SnapshotEvery = res.Events / 2
		cfg.OnSnapshot = func(s Snapshot) {
			if blob == nil {
				blob = s.Blob
			}
		}
		if eng, err = New(cfg); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return blob, len(prog.Ops)
	}
	short, shortOps := midRun(10)
	long, longOps := midRun(40)
	if grew, limit := len(long)-len(short), (longOps-shortOps)/8+8*p; grew > limit {
		t.Errorf("mid-run blob grew %d B (%d → %d) for %d more ops; want at most %d",
			grew, len(short), len(long), longOps-shortOps, limit)
	}
}
