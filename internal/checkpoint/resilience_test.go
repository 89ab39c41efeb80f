package checkpoint

import (
	"strings"
	"testing"

	"checkpointsim/internal/goal"
	"checkpointsim/internal/network"
	"checkpointsim/internal/sim"
	"checkpointsim/internal/simtime"
)

// widened embeds a half-machine stencil in a full machine so the upper
// ranks can serve as replicas.
func widened(t *testing.T, app, machine, iters int) *goal.Program {
	t.Helper()
	p := stencil(t, app, iters, simtime.Millisecond)
	w, err := goal.Widen(p, machine)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestReplicationMirrorsAndHeartbeats(t *testing.T) {
	rp := mustNew[*Replication](t, Config{Kind: KindReplication}, nil)
	r := runWith(t, widened(t, 8, 16, 40), rp)
	st := rp.Stats()
	if rp.AppRanks() != 8 {
		t.Fatalf("app ranks = %d, want 8", rp.AppRanks())
	}
	// Every application send is primary→primary (replicas run no ops), so
	// the mirror counters must equal the application message counters
	// exactly — one duplicate per send at degree 1.
	if st.MirroredMessages != r.Metrics.AppMessages {
		t.Errorf("mirrored %d messages, app sent %d", st.MirroredMessages, r.Metrics.AppMessages)
	}
	if st.MirroredBytes != r.Metrics.AppBytes {
		t.Errorf("mirrored %d B, app sent %d B", st.MirroredBytes, r.Metrics.AppBytes)
	}
	if st.Heartbeats == 0 {
		t.Error("no heartbeats sent")
	}
	// Mirrors and heartbeats both ride the control path.
	if r.Metrics.CtlMessages != st.MirroredMessages+st.Heartbeats {
		t.Errorf("ctl messages %d != mirrored %d + heartbeats %d",
			r.Metrics.CtlMessages, st.MirroredMessages, st.Heartbeats)
	}
	if st.Writes != 0 {
		t.Errorf("replication wrote %d checkpoints, wants none", st.Writes)
	}
}

func TestReplicationRequiresDivisibleMachine(t *testing.T) {
	rp := mustNew[*Replication](t, Config{Kind: KindReplication}, nil)
	_, err := sim.New(sim.Config{Net: network.DefaultParams(),
		Program: stencil(t, 9, 5, simtime.Millisecond), Agents: []sim.Agent{rp}})
	if err == nil {
		t.Fatal("indivisible machine accepted")
	}
	if !strings.Contains(err.Error(), "divisible") {
		t.Errorf("error %v does not explain divisibility", err)
	}
}

// cicConfig is CIC on staggered 2ms timers with the given lag threshold.
func cicConfig(lag int) Config {
	return Config{Kind: KindCIC, Interval: 2 * simtime.Millisecond, Write: 100 * simtime.Microsecond,
		Offset: "staggered", CICLag: lag}
}

func TestCICForcesOnLaggedIndex(t *testing.T) {
	cic := mustNew[*CIC](t, cicConfig(1), nil)
	r := runWith(t, stencil(t, 16, 60, simtime.Millisecond), cic)
	st := cic.Stats()
	if st.Writes == 0 {
		t.Fatal("no checkpoints written")
	}
	if st.Forced == 0 {
		t.Fatal("no forced checkpoints — induction untested")
	}
	if st.Forced > st.Writes {
		t.Errorf("forced %d > total writes %d", st.Forced, st.Writes)
	}
	for rank := 0; rank < 16; rank++ {
		if cic.last[rank] == 0 {
			t.Errorf("rank %d has no recovery line", rank)
		}
	}
	if r.Makespan == 0 {
		t.Fatal("empty run")
	}
}

func TestCICLagThresholdDampsForcing(t *testing.T) {
	forced := func(lag int) int64 {
		cic := mustNew[*CIC](t, cicConfig(lag), nil)
		runWith(t, stencil(t, 16, 60, simtime.Millisecond), cic)
		return cic.Stats().Forced
	}
	f1, f4 := forced(1), forced(4)
	if f1 == 0 {
		t.Fatal("lag 1 forced nothing — comparison vacuous")
	}
	if f4 > f1 {
		t.Errorf("lag 4 forced %d checkpoints, more than lag 1's %d", f4, f1)
	}
}

// TestCICSteadyChannelAllocationFree: a send matched before the channel's
// next send — the common case — reuses the channel's piggyback queue, so
// the cycle allocates nothing once the queue exists.
func TestCICSteadyChannelAllocationFree(t *testing.T) {
	cic := mustNew[*CIC](t, cicConfig(1), nil)
	cic.idx = make([]int64, 2) // equal indices: no match forces a checkpoint
	cycle := func() {
		cic.SendPenalty(0, 1, 64)
		cic.MessageMatched(0, 1, 64)
	}
	cycle() // the channel's first send creates its queue
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("a steady send-match cycle allocates %.1f times, want 0", n)
	}
}
