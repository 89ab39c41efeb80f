package checkpointsim

import (
	"strings"
	"testing"
)

// Run widens the machine for ProtoReplication: the configured ranks are
// the application, and each primary gets a live replica node. Takeover
// recovery then absorbs failures without losing work.
func TestRunReplicationFacade(t *testing.T) {
	res, err := Run(RunConfig{
		Workload:   "stencil2d",
		Ranks:      8,
		Iterations: 40,
		Compute:    Millisecond,
		MsgBytes:   2048,
		Seed:       16,
		Protocol:   ProtocolConfig{Kind: ProtoReplication},
		Failures:   &FailureConfig{MTBF: 40 * Millisecond, Restart: 100 * Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.RankFinish); got != 16 {
		t.Fatalf("machine spans %d ranks, want 16 (8 primaries + 8 replicas)", got)
	}
	st := res.Protocol.Stats()
	if st.MirroredMessages == 0 || st.Heartbeats == 0 {
		t.Errorf("replication idle: mirrored=%d heartbeats=%d", st.MirroredMessages, st.Heartbeats)
	}
	if len(res.FailureEvents) == 0 {
		t.Fatal("no failures injected — takeover untested")
	}
	for _, ev := range res.FailureEvents {
		if ev.LostWork != 0 {
			t.Errorf("rank %d lost %v of work under replica takeover", ev.Rank, ev.LostWork)
		}
	}
	if st.Takeovers == 0 {
		t.Error("failures occurred but no replica took over")
	}
}

// ProtoCIC through the facade: the basic timer writes and lagged indices
// force additional checkpoints.
func TestRunCICFacade(t *testing.T) {
	res, err := Run(RunConfig{
		Workload:   "stencil2d",
		Ranks:      16,
		Iterations: 60,
		Compute:    Millisecond,
		MsgBytes:   2048,
		Seed:       3,
		Protocol: ProtocolConfig{Kind: ProtoCIC,
			Interval: 2 * Millisecond, Write: 100 * Microsecond, CICLag: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Protocol.Stats()
	if st.Writes == 0 {
		t.Fatal("CIC wrote no checkpoints")
	}
	if st.Forced == 0 {
		t.Error("no forced checkpoints — communication induced nothing")
	}
	if st.Forced > st.Writes {
		t.Errorf("forced %d exceeds total writes %d", st.Forced, st.Writes)
	}
}

// ProtocolConfig.New builds the resilience protocols and validates their
// inputs.
func TestResilienceProtocolConstructors(t *testing.T) {
	rp, err := ProtocolConfig{Kind: ProtoReplication}.New(nil)
	if err != nil {
		t.Fatal(err)
	}
	if rp.Name() != "replication" {
		t.Errorf("name = %q", rp.Name())
	}
	if _, err := (ProtocolConfig{Kind: ProtoReplication, ReplicaDegree: -1}).New(nil); err == nil {
		t.Error("negative degree accepted")
	}
	c := ProtocolConfig{Kind: ProtoCIC, Interval: 2 * Millisecond, Write: 100 * Microsecond,
		CICLag: 1, Offset: "staggered"}
	cic, err := c.New(nil)
	if err != nil {
		t.Fatal(err)
	}
	if cic.Name() != "cic" {
		t.Errorf("name = %q", cic.Name())
	}
	bad := c
	bad.Offset = "sideways"
	if _, err := bad.New(nil); err == nil {
		t.Error("bad offset policy accepted")
	}
	bad = c
	bad.Interval = 0
	if _, err := bad.New(nil); err == nil {
		t.Error("zero interval accepted")
	}
}

// A library caller that hands NewEngine a replication protocol and an
// unwidened machine gets an error naming the divisibility rule, not a
// panic from Run.
func TestNewEngineRefusesIndivisibleReplication(t *testing.T) {
	b := NewBuilder(9)
	for r := 0; r < 9; r++ {
		b.Calc(r, Millisecond)
	}
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p, err := ProtocolConfig{Kind: ProtoReplication}.New(nil)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(SimConfig{Net: DefaultNetwork(), Program: prog, Agents: []Agent{p}})
	if err == nil {
		eng.Run()
		t.Fatal("9 ranks accepted for replication degree 1")
	}
	if !strings.Contains(err.Error(), "divisible") {
		t.Errorf("error %v does not explain divisibility", err)
	}
}
