// Package failure injects node failures into a simulation and models the
// recovery that follows each one. The protocol picks the recovery
// discipline (see NewInjector), because what a failure costs is exactly
// what the protocol comparison measures:
//
//   - global rollback (coordinated checkpointing and every protocol
//     without a finer line): every rank rolls back to its last committed
//     checkpoint and pays the restart cost plus re-execution of its
//     progress since then.
//
//   - single-rank replay (uncoordinated with sender-based message
//     logging): only the failed rank rolls back, to its own most recent
//     checkpoint, and replays from its partners' message logs — faster than
//     real time because logged messages are already available. Every other
//     rank keeps computing until it actually needs a message from the
//     recovering rank; the simulator's dependency graph provides that stall
//     propagation for free, which is precisely the effect under study.
//
//   - cluster rollback (hierarchical): the failed rank's cluster rolls
//     back together, replaying logged inter-cluster messages.
//
//   - level dispatch (two-level): most failures restart from the fast
//     local level, the rest fall through to the global line.
//
//   - replica takeover (replication): a failed primary stalls only for
//     detection plus promotion, and no work is ever lost.
//
// Failures arrive as a Poisson (or Weibull-renewal) process over the whole
// machine with per-node MTBF θ (system rate P/θ); the victim is uniform.
package failure

import (
	"fmt"
	"math"

	"checkpointsim/internal/checkpoint"
	"checkpointsim/internal/sim"
	"checkpointsim/internal/simtime"
	"checkpointsim/internal/snapshot"
)

// Reason is the accounting key recovery seizures appear under.
const Reason = "recovery"

// MarkRepFailure is the phase marker of a failure under replication,
// emitted before the takeover; detail is the failed rank.
const MarkRepFailure = "rep-failure"

// Config describes the failure process and recovery costs.
type Config struct {
	// MTBF is the per-node mean time between failures.
	MTBF simtime.Duration
	// Shape is the Weibull shape of inter-failure gaps (1 = exponential,
	// <1 = infant mortality). Zero defaults to 1.
	Shape float64
	// Restart is the fixed cost of restarting and reading the checkpoint;
	// a two-level protocol's fast local level restarts in Restart/10.
	Restart simtime.Duration
	// LocalCoverage is the probability a failure is recoverable from the
	// fast local level (two-level protocols only). Zero defaults to 0.9.
	LocalCoverage float64
}

// replaySpeedup is how much faster than real time a rank replays logged
// execution (typical values 1.5–3 in the literature).
const replaySpeedup float64 = 2

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.MTBF <= 0 {
		return fmt.Errorf("failure: non-positive MTBF %v", c.MTBF)
	}
	if c.Shape < 0 || math.IsNaN(c.Shape) {
		return fmt.Errorf("failure: bad shape %v", c.Shape)
	}
	if c.Restart < 0 {
		return fmt.Errorf("failure: negative restart cost")
	}
	if c.LocalCoverage < 0 || c.LocalCoverage > 1 || math.IsNaN(c.LocalCoverage) {
		return fmt.Errorf("failure: local coverage %v outside [0,1]", c.LocalCoverage)
	}
	return nil
}

func (c Config) localCoverage() float64 {
	if c.LocalCoverage == 0 {
		return 0.9
	}
	return c.LocalCoverage
}

func (c Config) shape() float64 {
	if c.Shape == 0 {
		return 1
	}
	return c.Shape
}

// Event records one injected failure.
type Event struct {
	Time     simtime.Time
	Rank     int
	LostWork simtime.Duration // work discarded by the rollback
	Recovery simtime.Duration // CPU seizure charged for recovery
}

// Injector is the sim.Agent that injects failures and applies recovery.
type Injector struct {
	cfg      Config
	proto    checkpoint.Protocol
	recovery recovery
	ctx      *sim.Context
	evts     []Event
}

// recovery is the discipline an Injector applies, chosen by NewInjector
// from its protocol's capabilities.
type recovery uint8

const (
	rollbackGlobal recovery = iota
	replayLocal
	rollbackCluster
	recoverTwoLevel
	takeoverReplica
)

// ClusterProtocol is the capability cluster rollback needs: protocols that
// can name a rank's rollback unit.
type ClusterProtocol interface {
	checkpoint.Protocol
	ClusterMembers(rank int) []int
}

// TwoLevelProtocol is the capability level dispatch needs: a protocol
// exposing the progress its global (severe-failure) recovery line saved
// alongside the default (local) one.
type TwoLevelProtocol interface {
	checkpoint.Protocol
	GlobalProgressAt(rank int) simtime.Duration
}

// ReplicaProtocol is the capability replica takeover needs: a protocol
// that absorbs a rank failure by replica takeover. Takeover returns the
// logical rank that stalls, the CPU seizure modeling detection plus
// promotion, and whether the failure stalls the application at all (a
// spare-replica loss does not).
type ReplicaProtocol interface {
	checkpoint.Protocol
	Takeover(victim int, now simtime.Time) (rank int, cost simtime.Duration, stalls bool)
}

// NewInjector builds a failure injector coupled to the protocol that
// defines the recovery lines. The protocol's capabilities pick the
// recovery, first match wins: a ReplicaProtocol gets replica takeover, a
// TwoLevelProtocol level dispatch, a ClusterProtocol cluster rollback, a
// protocol keeping message logs single-rank replay, and any other protocol
// a global rollback.
func NewInjector(cfg Config, proto checkpoint.Protocol) (*Injector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if proto == nil {
		return nil, fmt.Errorf("failure: nil protocol")
	}
	f := &Injector{cfg: cfg, proto: proto}
	switch proto.(type) {
	case ReplicaProtocol:
		f.recovery = takeoverReplica
	case TwoLevelProtocol:
		f.recovery = recoverTwoLevel
	case ClusterProtocol:
		f.recovery = rollbackCluster
	case interface{ LogConfig() checkpoint.LogParams }:
		f.recovery = replayLocal
	}
	return f, nil
}

// Init implements sim.Agent.
func (f *Injector) Init(ctx *sim.Context) {
	f.ctx = ctx
	f.scheduleNext()
}

// scheduleNext draws the next machine-level failure gap: per-node MTBF θ
// across P nodes gives a system MTBF of θ/P.
func (f *Injector) scheduleNext() {
	p := float64(f.ctx.NumRanks())
	systemMean := float64(f.cfg.MTBF) / p
	var gap float64
	if sh := f.cfg.shape(); sh == 1 {
		gap = f.ctx.Rand().Exp(systemMean)
	} else {
		// Weibull with the same mean: scale = mean / Γ(1 + 1/shape).
		scale := systemMean / math.Gamma(1+1/sh)
		gap = f.ctx.Rand().Weibull(scale, sh)
	}
	d := simtime.Duration(gap)
	if d < 1 {
		d = 1
	}
	f.ctx.AfterOwned(d, f, 0, 0)
}

// OnTimer implements sim.TimerOwner: the only timer is the next failure.
func (f *Injector) OnTimer(uint8, int64) { f.fail() }

// SnapshotState implements sim.Resumable. The pending failure timer lives
// in the engine.
func (f *Injector) SnapshotState(ctx *sim.Context, c *snapshot.Codec) {
	f.ctx = ctx
	if n := c.Len(len(f.evts)); c.Decoding() {
		f.evts = make([]Event, n)
	}
	for i := range f.evts {
		e := &f.evts[i]
		snapshot.Int(c, &e.Time)
		snapshot.Int(c, &e.Rank)
		snapshot.Int(c, &e.LostWork)
		snapshot.Int(c, &e.Recovery)
	}
}

// rework returns the application progress rank must re-execute after
// rolling back to its last covering checkpoint. Measuring progress
// (cumulative application CPU time) rather than wall time is essential:
// wall time would count checkpoint writes, coordination, and — fatally —
// earlier recoveries as "work to redo", which makes back-to-back failures
// compound into rework that grows without bound.
func (f *Injector) rework(rank int) simtime.Duration {
	return f.ctx.RankBusy(rank) - f.proto.ProgressAtCheckpoint(rank)
}

// rollback rolls ranks (every rank when ranks is nil) back after victim
// failed: each seizes its CPU for restart plus its rework, the rework
// replayed at the speedup when replay is set, and the recorded event
// carries the critical path, the largest rework.
func (f *Injector) rollback(victim int, ranks []int, rework func(rank int) simtime.Duration,
	restart simtime.Duration, replay bool) {
	n := len(ranks)
	if ranks == nil {
		n = f.ctx.NumRanks()
	}
	rank := func(i int) int {
		if ranks == nil {
			return i
		}
		return ranks[i]
	}
	redo := func(w simtime.Duration) simtime.Duration {
		if replay {
			return w.Scale(1 / replaySpeedup)
		}
		return w
	}
	var maxRework simtime.Duration
	for i := 0; i < n; i++ {
		maxRework = max(maxRework, rework(rank(i)))
	}
	for i := 0; i < n; i++ {
		r := rank(i)
		f.ctx.SeizeCPU(r, restart+redo(rework(r)), Reason, sim.Call{})
	}
	f.evts = append(f.evts, Event{Time: f.ctx.Now(), Rank: victim,
		LostWork: maxRework, Recovery: restart + redo(maxRework)})
}

func (f *Injector) fail() {
	now := f.ctx.Now()
	victim := f.ctx.Rand().Intn(f.ctx.NumRanks())
	switch f.recovery {
	case rollbackGlobal:
		// Every rank rolls back to the last global line and re-executes its
		// own progress since then.
		f.rollback(victim, nil, f.rework, f.cfg.Restart, false)
	case replayLocal:
		// Only the victim rolls back, to its own last checkpoint, and
		// replays at a speedup because logged messages are ready.
		f.rollback(victim, []int{victim}, f.rework, f.cfg.Restart, true)
	case rollbackCluster:
		// The victim's whole cluster rolls back to its cluster line and
		// re-executes together, replaying inter-cluster messages from logs.
		f.rollback(victim, f.proto.(ClusterProtocol).ClusterMembers(victim), f.rework, f.cfg.Restart, true)
	case recoverTwoLevel:
		// Severity draw: local-level recovery covers most failures; the
		// rest fall through to the global line.
		tl := f.proto.(TwoLevelProtocol)
		if f.ctx.Rand().Float64() < f.cfg.localCoverage() {
			f.rollback(victim, nil, f.rework, f.cfg.Restart/10, false)
		} else {
			f.rollback(victim, nil, func(r int) simtime.Duration {
				return f.ctx.RankBusy(r) - tl.GlobalProgressAt(r)
			}, f.cfg.Restart, false)
		}
	case takeoverReplica:
		// No rollback ever: a failed primary stalls for detection plus
		// promotion while its replica takes over with all progress intact;
		// a failed spare replica is absorbed for free.
		f.ctx.Mark(victim, MarkRepFailure, int64(victim))
		rank, cost, stalls := f.proto.(ReplicaProtocol).Takeover(victim, now)
		if stalls {
			f.ctx.SeizeCPU(rank, cost, Reason, sim.Call{})
			f.evts = append(f.evts, Event{Time: now, Rank: victim, Recovery: cost})
		} else {
			f.evts = append(f.evts, Event{Time: now, Rank: victim})
		}
	}
	f.scheduleNext()
}

// Events returns the injected failures in order.
func (f *Injector) Events() []Event { return f.evts }

var (
	_ sim.Agent     = (*Injector)(nil)
	_ sim.Resumable = (*Injector)(nil)
)
