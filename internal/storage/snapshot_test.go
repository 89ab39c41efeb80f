package storage

import (
	"errors"
	"strings"
	"testing"

	"checkpointsim/internal/goal"
	"checkpointsim/internal/network"
	"checkpointsim/internal/sim"
	"checkpointsim/internal/simtime"
	"checkpointsim/internal/snapshot"
)

// SnapshotState makes writeLoop Resumable the way a protocol is: its own
// state, then its store's.
func (w *writeLoop) SnapshotState(ctx *sim.Context, c *snapshot.Codec) {
	w.ctx = ctx
	snapshot.Slice(c, &w.left, len(w.left))
	w.s.SnapshotState(ctx, c)
}

// idle is a timer owner that owns no work.
type idle struct{}

func (idle) OnTimer(uint8, int64) {}

// TestRestoreRefusesDrainPastOwners: a draining write's Call names the
// store by its position among the engine's timer owners. A snapshot taken
// by an engine that registered one owner before the store names a position
// past the owners of an engine that did not, even once the store has
// registered while its agent's section decodes, so the restore is refused
// with ErrCorrupt in that section: never a nil call, never a panic.
func TestRestoreRefusesDrainPastOwners(t *testing.T) {
	const ranks = 4
	b := goal.NewBuilder(ranks)
	for r := 0; r < ranks; r++ {
		b.Seq(r).Calc(simtime.Microsecond)
	}
	prog := b.MustBuild()
	// engine builds a writeLoop run; collect, when set, takes a snapshot
	// after every event.
	engine := func(extra sim.TimerOwner, collect func(*Store, sim.Snapshot)) *sim.Engine {
		s, err := New(Params{AggregateBytesPerSec: gbps(1), PerWriterBytesPerSec: gbps(0.4)})
		if err != nil {
			t.Fatal(err)
		}
		cfg := sim.Config{Net: network.DefaultParams(), Program: prog, Seed: 1,
			Agents: []sim.Agent{&writeLoop{s: s, left: []int{2, 2, 2, 2}, extra: extra}}}
		if collect != nil {
			cfg.SnapshotEvery, cfg.OnSnapshot = 1, func(sn sim.Snapshot) { collect(s, sn) }
		}
		e, err := sim.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	// draining returns the first snapshot taken while a write drains.
	draining := func(extra sim.TimerOwner) []byte {
		var blob []byte
		e := engine(extra, func(s *Store, sn sim.Snapshot) {
			if blob == nil && len(s.writes) > 0 {
				blob = sn.Blob
			}
		})
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if blob == nil {
			t.Fatal("no snapshot holds a draining write")
		}
		return blob
	}
	if err := engine(nil, nil).Restore(draining(nil)); err != nil {
		t.Fatalf("restore of a drain named by the store's own position: %v", err)
	}
	err := engine(nil, nil).Restore(draining(idle{}))
	if !errors.Is(err, snapshot.ErrCorrupt) || !strings.Contains(err.Error(), "agent 0") {
		t.Errorf("restore of a drain naming a position past the owners: %v, want ErrCorrupt from agent 0's section", err)
	}
}
