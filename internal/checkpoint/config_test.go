package checkpoint

import (
	"testing"

	"checkpointsim/internal/simtime"
	"checkpointsim/internal/storage"
)

// The offset policy is parsed for exactly the kinds that use one: a bad
// policy fails those and is ignored by the rest.
func TestConfigNewOffsets(t *testing.T) {
	ms := simtime.Millisecond
	for _, k := range []Kind{KindUncoordinated, KindPartner, KindCIC} {
		cfg := Config{Kind: k, Interval: 5 * ms, Write: ms, CkptBytes: 1 << 20, Offset: "bogus"}
		if _, err := cfg.New(nil); err == nil {
			t.Errorf("%q accepted a bogus offset", k)
		}
		cfg.Offset = "aligned"
		if _, err := cfg.New(nil); err != nil {
			t.Errorf("%q with a valid offset: %v", k, err)
		}
	}
	if _, err := (Config{Kind: KindCoordinated, Interval: 5 * ms, Write: ms, Offset: "bogus"}).New(nil); err != nil {
		t.Errorf("coordinated has no offset policy, yet rejected one: %v", err)
	}
	if _, err := (Config{Kind: "bogus"}).New(nil); err == nil {
		t.Error("unknown kind accepted")
	}
}

// The store reaches the protocols that write through one: a two-level
// config without its own store inherits the run's.
func TestConfigNewRoutesStore(t *testing.T) {
	st := storage.Unlimited()
	p, err := Config{Kind: KindTwoLevel, TwoLevel: TwoLevelParams{LocalInterval: simtime.Millisecond,
		LocalWrite: simtime.Microsecond, GlobalInterval: 4 * simtime.Millisecond,
		GlobalWrite: simtime.Microsecond}}.New(st)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.(*TwoLevel).p.Store; got != st {
		t.Errorf("two-level store = %p, want the run's %p", got, st)
	}
}
