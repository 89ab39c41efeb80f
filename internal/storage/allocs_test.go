package storage

import (
	"math"
	"testing"

	"checkpointsim/internal/goal"
	"checkpointsim/internal/network"
	"checkpointsim/internal/sim"
	"checkpointsim/internal/simtime"
)

// writeLoop is an agent that keeps one checkpoint write in flight on each
// of its ranks: every drained Write starts the rank's next, until left
// writes per rank have completed. Even ranks write to the node tier, odd
// ranks to the global tier, so both arbitration paths see joins and leaves.
// extra, when set, is registered as a timer owner at Init, before the store.
type writeLoop struct {
	s     *Store
	ctx   *sim.Context
	left  []int
	extra sim.TimerOwner
}

func (w *writeLoop) Init(ctx *sim.Context) {
	w.ctx = ctx
	if w.extra != nil {
		ctx.OwnTimers(w.extra)
	}
	for r := range w.left {
		w.OnTimer(0, int64(r))
	}
}

// OnTimer starts rank arg's next write.
func (w *writeLoop) OnTimer(_ uint8, arg int64) {
	r := int(arg)
	if w.left[r] == 0 {
		return
	}
	w.left[r]--
	tier := TierGlobal
	if r%2 == 0 {
		tier = TierNode
	}
	w.s.Write(w.ctx, r, tier, 1e6, "checkpoint", "io-wait", sim.Call{Owner: w, Arg: arg})
}

// A Write→drain cycle on a bound store allocates nothing in steady state:
// drains are held by value in a reused slice, retired through a reused
// buffer, and node membership is a slice sized at Bind. A run with 4× the
// write cycles at the same in-flight depth must therefore allocate as much
// as the short one, up to the one or two allocations the race detector's
// runtime adds or saves between runs; one allocation per cycle would add
// 300.
func TestStoreWriteAllocs(t *testing.T) {
	const ranks = 4
	prog := func() *goal.Program {
		b := goal.NewBuilder(ranks)
		for r := 0; r < ranks; r++ {
			b.Seq(r).Calc(simtime.Microsecond)
		}
		return b.MustBuild()
	}()
	p := Params{AggregateBytesPerSec: gbps(1), PerWriterBytesPerSec: gbps(0.4),
		NodeBytesPerSec: gbps(0.5), RanksPerNode: 2}
	measure := func(cycles int) float64 {
		return testing.AllocsPerRun(5, func() {
			s, err := New(p)
			if err != nil {
				t.Fatal(err)
			}
			w := &writeLoop{s: s, left: make([]int, ranks)}
			for r := range w.left {
				w.left[r] = cycles
			}
			e, err := sim.New(sim.Config{Net: network.DefaultParams(), Program: prog, Agents: []sim.Agent{w}, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.Run(); err != nil {
				t.Fatal(err)
			}
			if got := s.Stats().Writes; got != int64(ranks*cycles) {
				t.Fatalf("%d writes drained, want %d", got, ranks*cycles)
			}
		})
	}
	const short, long = 25, 100
	if extra := measure(long) - measure(short); math.Abs(extra) > 2 {
		t.Errorf("%d more write cycles allocate %.0f more times: %.2f allocations per cycle, want 0",
			ranks*(long-short), extra, extra/float64(ranks*(long-short)))
	}
}
