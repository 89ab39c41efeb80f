package checkpoint

import (
	"strings"
	"testing"

	"checkpointsim/internal/goal"
	"checkpointsim/internal/simtime"
)

func TestReplicationParamsValidate(t *testing.T) {
	if err := (ReplicationParams{}).Validate(); err != nil {
		t.Errorf("zero params rejected: %v", err)
	}
	bad := []ReplicationParams{
		{Degree: -1},
		{HeartbeatPeriod: -1},
		{HeartbeatBytes: -1},
		{TakeoverCost: -1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad params %d accepted", i)
		}
		if _, err := NewReplication(p); err == nil {
			t.Errorf("constructor accepted bad params %d", i)
		}
	}
	rp, err := NewReplication(ReplicationParams{})
	if err != nil {
		t.Fatal(err)
	}
	if rp.Degree() != 1 {
		t.Errorf("default degree = %d, want 1", rp.Degree())
	}
	if rp.Name() != "replication" {
		t.Errorf("name = %q", rp.Name())
	}
}

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
	rp, err := NewReplication(ReplicationParams{})
	if err != nil {
		t.Fatal(err)
	}
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
	if rp.LastCheckpoint(0) != 0 {
		t.Error("replication reports a checkpoint line")
	}
}

func TestReplicationRequiresDivisibleMachine(t *testing.T) {
	rp, err := NewReplication(ReplicationParams{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("indivisible machine accepted")
		}
		if !strings.Contains(r.(string), "divisible") {
			t.Errorf("panic %v does not explain divisibility", r)
		}
	}()
	runWith(t, stencil(t, 9, 5, simtime.Millisecond), rp)
}

func TestCICConstructorValidation(t *testing.T) {
	params := Params{Interval: 2 * simtime.Millisecond, Write: 100 * simtime.Microsecond}
	if _, err := NewCIC(Params{}, 1, Staggered); err == nil {
		t.Error("zero interval accepted")
	}
	if _, err := NewCIC(params, -1, Staggered); err == nil {
		t.Error("negative lag accepted")
	}
	if _, err := NewCIC(params, 1, Random+1); err == nil {
		t.Error("bad offset policy accepted")
	}
	cic, err := NewCIC(params, 0, Staggered)
	if err != nil {
		t.Fatal(err)
	}
	if cic.LagThreshold() != 1 {
		t.Errorf("default lag = %d, want 1", cic.LagThreshold())
	}
	if cic.Name() != "cic" {
		t.Errorf("name = %q", cic.Name())
	}
}

func TestCICForcesOnLaggedIndex(t *testing.T) {
	cic, err := NewCIC(Params{Interval: 2 * simtime.Millisecond, Write: 100 * simtime.Microsecond},
		1, Staggered)
	if err != nil {
		t.Fatal(err)
	}
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
		if cic.LastCheckpoint(rank) == 0 {
			t.Errorf("rank %d has no recovery line", rank)
		}
	}
	if r.Makespan == 0 {
		t.Fatal("empty run")
	}
}

func TestCICLagThresholdDampsForcing(t *testing.T) {
	forced := func(lag int) int64 {
		cic, err := NewCIC(Params{Interval: 2 * simtime.Millisecond, Write: 100 * simtime.Microsecond},
			lag, Staggered)
		if err != nil {
			t.Fatal(err)
		}
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
	cic, err := NewCIC(Params{Interval: 2 * simtime.Millisecond, Write: 100 * simtime.Microsecond},
		1, Staggered)
	if err != nil {
		t.Fatal(err)
	}
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
