package checkpoint

// Shared snapshot-state helpers for the protocol implementations (see
// sim.Resumable and DESIGN.md S25). Every protocol serializes its full
// Stats, its recovery-line bookkeeping, its checkpoints and rounds in
// flight, and — when it owns one — the shared storage arbiter's state;
// pending timers and callbacks are not serialized here because they live,
// as owned work, in the engine's event queue, jobs and messages.

import (
	"checkpointsim/internal/sim"
	"checkpointsim/internal/snapshot"
	"checkpointsim/internal/storage"
)

func codeStats(c *snapshot.Codec, s *Stats) {
	snapshot.Int(c, &s.Rounds)
	snapshot.Int(c, &s.Writes)
	snapshot.Int(c, &s.CoordDelay)
	snapshot.Int(c, &s.RoundSpan)
	snapshot.Int(c, &s.LoggedMessages)
	snapshot.Int(c, &s.LoggedBytes)
	snapshot.Int(c, &s.LogPenalty)
	snapshot.Int(c, &s.Forced)
	snapshot.Int(c, &s.MirroredMessages)
	snapshot.Int(c, &s.MirroredBytes)
	snapshot.Int(c, &s.Heartbeats)
	snapshot.Int(c, &s.Takeovers)
}

// codeStore walks an optionally-configured shared store. Each store is
// owned by exactly one protocol per simulation, so its state rides in that
// protocol's agent section; restoring rebinds it to the restoring engine.
func codeStore(ctx *sim.Context, c *snapshot.Codec, st *storage.Store) {
	has := st != nil
	c.Bool(&has)
	if has != (st != nil) {
		c.Failf("store presence mismatch")
	} else if st != nil {
		st.SnapshotState(ctx, c)
	}
}

// codeRounds walks completed-round records.
func codeRounds(c *snapshot.Codec, rounds *[]RoundRecord) {
	if n := c.Len(len(*rounds)); c.Decoding() {
		*rounds = make([]RoundRecord, n)
	}
	for i := range *rounds {
		snapshot.Int(c, &(*rounds)[i].Start)
		snapshot.Int(c, &(*rounds)[i].End)
	}
}

// None has no mutable state at all.

// SnapshotState implements sim.Resumable.
func (None) SnapshotState(*sim.Context, *snapshot.Codec) {}

var _ sim.Resumable = None{}
