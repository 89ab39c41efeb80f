package sim

// Randomized cross-validation: arbitrary programs with arbitrary agent
// perturbations must respect the engine's global invariants. These tests
// are the strongest correctness net in the repository — every subsystem
// (matching, rendezvous, NIC serialization, seizures, gates, scaling,
// control traffic) feeds into them.

import (
	"testing"
	"testing/quick"

	"checkpointsim/internal/goal"
	"checkpointsim/internal/network"
	"checkpointsim/internal/rng"
	"checkpointsim/internal/runner"
	"checkpointsim/internal/simtime"
)

// randomProgram builds a balanced program with random structure: per-rank
// compute chains, ring exchanges, random pairwise messages, and occasional
// rendezvous-sized payloads.
func randomProgram(r *rng.Source) *goal.Program {
	nranks := r.Intn(6) + 2
	b := goal.NewBuilder(nranks)
	seqs := make([]*goal.Sequencer, nranks)
	for i := range seqs {
		seqs[i] = b.Seq(i)
	}
	iters := r.Intn(5) + 1
	for it := 0; it < iters; it++ {
		for i, s := range seqs {
			s.Calc(simtime.Duration(r.Intn(200000)))
			size := int64(r.Intn(1024) + 1)
			if r.Float64() < 0.2 {
				size = int64(r.Intn(256*1024) + 64*1024) // rendezvous range
			}
			next := (i + 1) % nranks
			prev := (i - 1 + nranks) % nranks
			sd := s.Fork(goal.KindSend, int32(next), int32(it), size)
			rv := s.Fork(goal.KindRecv, int32(prev), int32(it), 0)
			s.Join(sd, rv)
		}
		// Occasional extra pairwise exchange with a random partner pattern.
		if r.Float64() < 0.5 && nranks >= 2 {
			a := r.Intn(nranks)
			c := (a + 1 + r.Intn(nranks-1)) % nranks
			sa, sc := seqs[a], seqs[c]
			tag := int32(100 + it)
			f1 := sa.Fork(goal.KindSend, int32(c), tag, 64)
			f2 := sa.Fork(goal.KindRecv, int32(c), tag, 64)
			sa.Join(f1, f2)
			g1 := sc.Fork(goal.KindSend, int32(a), tag, 64)
			g2 := sc.Fork(goal.KindRecv, int32(a), tag, 64)
			sc.Join(g1, g2)
		}
	}
	return b.MustBuild()
}

// chaosAgent applies random (but deterministic, seeded) perturbations:
// seizures, app gates, CPU scaling, and control chatter. Each perturbation
// is one planned action, started and ended by the agent's own owned work.
type chaosAgent struct {
	seed    uint64
	ctx     *Context
	actions []chaosAction
}

type chaosAction struct {
	kind uint8 // chaosSeize..chaosControl
	when simtime.Time
	rank int
	dst  int              // chaosControl
	d    simtime.Duration // seizure length, or how long a hold/scale lasts
	f    float64          // chaosScale factor
	h    Handle           // the open hold or scale
}

// chaosAgent action kinds; OnTimer kind chaosEnd ends action arg's hold or
// scale.
const (
	chaosSeize uint8 = iota
	chaosHold
	chaosScale
	chaosControl
	chaosEnd
)

func (a *chaosAgent) Init(ctx *Context) {
	a.ctx = ctx
	r := rng.New(a.seed)
	n := ctx.NumRanks()
	a.actions = nil
	for i := 0; i < 10; i++ {
		act := chaosAction{rank: r.Intn(n), when: simtime.Time(r.Intn(1000000))}
		act.kind = uint8(r.Intn(4))
		switch act.kind {
		case chaosSeize:
			act.d = simtime.Duration(r.Intn(50000))
		case chaosHold:
			act.d = simtime.Duration(r.Intn(50000) + 1)
		case chaosScale:
			act.f = 1 + r.Float64()
			act.d = simtime.Duration(r.Intn(50000) + 1)
		case chaosControl:
			if n < 2 {
				continue
			}
			act.dst = (act.rank + 1 + r.Intn(n-1)) % n
		}
		a.actions = append(a.actions, act)
		ctx.AtOwned(act.when, a, act.kind, int64(len(a.actions)-1))
	}
}

func (a *chaosAgent) OnTimer(kind uint8, arg int64) {
	act := &a.actions[arg]
	switch kind {
	case chaosSeize:
		a.ctx.SeizeCPU(act.rank, act.d, "chaos", Call{})
	case chaosHold:
		act.h = a.ctx.HoldApp(act.rank, "chaos")
		a.ctx.AfterOwned(act.d, a, chaosEnd, arg)
	case chaosScale:
		act.h = a.ctx.ScaleCPU(act.rank, act.f)
		a.ctx.AfterOwned(act.d, a, chaosEnd, arg)
	case chaosControl:
		a.ctx.SendControl(act.rank, act.dst, 32, Call{})
	case chaosEnd:
		a.ctx.Release(act.h)
		act.h = 0
	}
}

func TestFuzzInvariants(t *testing.T) {
	net := network.DefaultParams()
	net.RendezvousThreshold = 64 * 1024
	f := func(seed uint32) bool {
		r := rng.New(uint64(seed))
		prog := randomProgram(r)
		cp, _ := goal.CriticalPath(prog, net)

		runOnce := func() *Result {
			eng, err := New(Config{Net: net, Program: prog,
				Agents: []Agent{&chaosAgent{seed: uint64(seed) + 1}},
				Seed:   uint64(seed), MaxEvents: 50_000_000})
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			res, err := eng.Run()
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			return res
		}
		a := runOnce()

		// Invariant 1: the contention-free critical path lower-bounds the
		// simulated makespan.
		if simtime.Duration(a.Makespan) < cp {
			t.Errorf("seed %d: makespan %v < critical path %v", seed, a.Makespan, cp)
			return false
		}
		// Invariant 2: per-rank conservation — a rank's accounted CPU
		// occupancy (app + control + seized, all non-overlapping intervals
		// completing before the simulation ends) cannot exceed the makespan.
		for i := range a.RankBusy {
			occupied := a.RankBusy[i] + a.RankCtlBusy[i] + a.RankSeized[i]
			if occupied > simtime.Duration(a.Makespan) {
				t.Errorf("seed %d: rank %d occupied %v > makespan %v",
					seed, i, occupied, a.Makespan)
				return false
			}
			if a.RankBusy[i] < 0 || a.RankCtlBusy[i] < 0 || a.RankSeized[i] < 0 {
				t.Errorf("seed %d: negative accounting on rank %d", seed, i)
				return false
			}
		}
		// Invariant 3: every message matched exactly once.
		st := prog.Stats()
		if a.Metrics.Matches != int64(st.NumSend) {
			t.Errorf("seed %d: %d matches for %d sends", seed, a.Metrics.Matches, st.NumSend)
			return false
		}
		// Invariant 4: bit-exact determinism.
		b := runOnce()
		if a.Makespan != b.Makespan || a.Events != b.Events || a.Metrics != b.Metrics {
			t.Errorf("seed %d: nondeterministic", seed)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// FuzzParallelAgents is the native-fuzz arm of the determinism net: a
// random program with chaos agents attached is run once serially and then
// four more times concurrently under the parallel sweep runner. Every
// replica must be bit-for-bit identical to the serial run — any hidden
// shared state between engines (a package-level variable, an RNG touched
// across goroutines) shows up here as a divergence or a -race report.
//
// Smoke-run the generator beyond the seed corpus with:
//
//	go test -fuzz=FuzzParallelAgents -fuzztime=10s ./internal/sim
func FuzzParallelAgents(f *testing.F) {
	// Corpus: small/large seeds, the sweep default, and values whose
	// programs historically exercised rendezvous payloads and multi-agent
	// interleavings under the runner.
	for _, seed := range []uint64{0, 1, 7, 42, 1234, 99999, 1 << 32} {
		f.Add(seed)
	}
	net := network.DefaultParams()
	net.RendezvousThreshold = 64 * 1024
	f.Fuzz(func(t *testing.T, seed uint64) {
		r := rng.New(seed)
		prog := randomProgram(r)
		runOnce := func() (*Result, error) {
			eng, err := New(Config{Net: net, Program: prog,
				Agents: []Agent{&chaosAgent{seed: seed + 1}},
				Seed:   seed, MaxEvents: 50_000_000})
			if err != nil {
				return nil, err
			}
			return eng.Run()
		}
		serial, err := runOnce()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		replicas, err := runner.Map(4, make([]struct{}, 4),
			func(int, struct{}) (*Result, error) { return runOnce() })
		if err != nil {
			t.Fatalf("seed %d: parallel replicas: %v", seed, err)
		}
		for i, rep := range replicas {
			if rep.Makespan != serial.Makespan || rep.Events != serial.Events ||
				rep.Metrics != serial.Metrics {
				t.Errorf("seed %d: replica %d diverged from serial run "+
					"(makespan %v vs %v, events %d vs %d)",
					seed, i, rep.Makespan, serial.Makespan, rep.Events, serial.Events)
			}
		}
	})
}

func TestFuzzWithFabric(t *testing.T) {
	// Note this does NOT assert makespan monotonicity: delaying one
	// injection through the shared fabric can reorder non-preemptive CPU
	// grants downstream and *shorten* the schedule (a Graham scheduling
	// anomaly — seed 0xee69 finishes ~2% faster constrained), so "fabric
	// never helps" is not an invariant of the model. The sound properties
	// are determinism and fabric-occupancy accounting.
	net := network.DefaultParams()
	net.BisectionBytesPerSec = 10e9
	f := func(seed uint16) bool {
		r := rng.New(uint64(seed))
		prog := randomProgram(r)
		eng, err := New(Config{Net: net, Program: prog, Seed: uint64(seed)})
		if err != nil {
			return false
		}
		res, err := eng.Run()
		if err != nil {
			return false
		}
		// The constrained run is deterministic: a rerun is bit-identical.
		eng2, _ := New(Config{Net: net, Program: prog, Seed: uint64(seed)})
		rep, err := eng2.Run()
		if err != nil || rep.Makespan != res.Makespan || rep.Events != res.Events ||
			rep.Metrics != res.Metrics {
			return false
		}
		// Fabric occupancy accumulates exactly when app bytes crossed the
		// wire, and never without the constraint configured.
		net2 := net
		net2.BisectionBytesPerSec = 0
		eng3, _ := New(Config{Net: net2, Program: prog, Seed: uint64(seed)})
		res2, err := eng3.Run()
		if err != nil {
			return false
		}
		if res2.Metrics.FabricBusy != 0 {
			return false
		}
		if res.Metrics.AppBytes > 0 && res.Metrics.FabricBusy <= 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
