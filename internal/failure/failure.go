// Package failure injects node failures into a simulation and models the
// two recovery disciplines whose contrast drives the protocol comparison:
//
//   - RollbackGlobal (coordinated checkpointing): every rank rolls back to
//     the last global recovery line. All ranks pay the restart cost plus
//     re-execution of everything since the line started.
//
//   - ReplayLocal (uncoordinated/hierarchical with message logging): only
//     the failed rank rolls back, to its own most recent checkpoint, and
//     replays from its partners' message logs — faster than real time
//     because logged messages are already available. Every other rank keeps
//     computing until it actually needs a message from the recovering rank;
//     the simulator's dependency graph provides that stall propagation for
//     free, which is precisely the effect under study.
//
// Failures arrive as a Poisson (or Weibull-renewal) process over the whole
// machine with per-node MTBF θ (system rate P/θ); the victim is uniform.
package failure

import (
	"fmt"
	"math"
	"strings"

	"checkpointsim/internal/checkpoint"
	"checkpointsim/internal/sim"
	"checkpointsim/internal/simtime"
	"checkpointsim/internal/snapshot"
)

// Reason is the accounting key recovery seizures appear under.
const Reason = "recovery"

// RecoveryKind selects the rollback discipline.
type RecoveryKind uint8

const (
	// RollbackGlobal rolls the whole machine back to the last global line.
	RollbackGlobal RecoveryKind = iota
	// ReplayLocal rolls back and replays only the failed rank.
	ReplayLocal
	// RollbackCluster rolls back the failed rank's cluster (hierarchical
	// protocols): cluster members re-execute together, replaying logged
	// inter-cluster messages at the replay speedup. Requires a protocol
	// implementing ClusterMembers.
	RollbackCluster
	// RecoverTwoLevel dispatches on failure severity: with probability
	// LocalCoverage the machine restarts from the fast local level
	// (LocalRestart + rework since the local line); otherwise it falls
	// through to the global line (Restart + rework since the global line).
	// Requires a checkpoint.TwoLevel-style protocol.
	RecoverTwoLevel
	// TakeoverReplica hands failures to a replication protocol: a failed
	// primary stalls only for heartbeat detection plus replica promotion —
	// no work is ever lost — and a failed spare replica costs nothing.
	// Requires a protocol implementing ReplicaProtocol.
	TakeoverReplica
)

// String names the recovery kind.
func (k RecoveryKind) String() string {
	switch k {
	case RollbackGlobal:
		return "global-rollback"
	case ReplayLocal:
		return "local-replay"
	case RollbackCluster:
		return "cluster-rollback"
	case RecoverTwoLevel:
		return "two-level"
	case TakeoverReplica:
		return "replica-takeover"
	}
	return fmt.Sprintf("recovery(%d)", uint8(k))
}

// recoveryNames are the names ParseRecovery accepts, indexed by kind.
var recoveryNames = [...]string{
	RollbackGlobal:  "global",
	ReplayLocal:     "local",
	RollbackCluster: "cluster",
	RecoverTwoLevel: "twolevel",
	TakeoverReplica: "takeover",
}

// ParseRecovery returns the recovery kind a command line names: one of
// global, local, cluster, twolevel or takeover.
func ParseRecovery(name string) (RecoveryKind, error) {
	for k, n := range recoveryNames {
		if n == name {
			return RecoveryKind(k), nil
		}
	}
	return 0, fmt.Errorf("unknown recovery %q (want %s)", name, strings.Join(recoveryNames[:], "|"))
}

// Config describes the failure process and recovery costs.
type Config struct {
	// MTBF is the per-node mean time between failures.
	MTBF simtime.Duration
	// Shape is the Weibull shape of inter-failure gaps (1 = exponential,
	// <1 = infant mortality). Zero defaults to 1.
	Shape float64
	// Restart is the fixed cost of restarting and reading the checkpoint.
	Restart simtime.Duration
	// ReplaySpeedup is how much faster than real time a rank replays
	// logged execution (>= 1; typical values 1.5–3 in the literature).
	// Only used by ReplayLocal. Zero defaults to 2.
	ReplaySpeedup float64
	// Kind selects the recovery discipline.
	Kind RecoveryKind
	// LocalCoverage is the probability a failure is recoverable from the
	// fast local level (RecoverTwoLevel only). Zero defaults to 0.9.
	LocalCoverage float64
	// LocalRestart is the fast-level restart cost (RecoverTwoLevel only).
	// Zero defaults to Restart/10.
	LocalRestart simtime.Duration
}

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
	if c.ReplaySpeedup < 0 || math.IsNaN(c.ReplaySpeedup) {
		return fmt.Errorf("failure: bad replay speedup %v", c.ReplaySpeedup)
	}
	if c.ReplaySpeedup != 0 && c.ReplaySpeedup < 1 {
		return fmt.Errorf("failure: replay speedup %v < 1", c.ReplaySpeedup)
	}
	if c.Kind > TakeoverReplica {
		return fmt.Errorf("failure: unknown recovery kind %d", c.Kind)
	}
	if c.LocalCoverage < 0 || c.LocalCoverage > 1 || math.IsNaN(c.LocalCoverage) {
		return fmt.Errorf("failure: local coverage %v outside [0,1]", c.LocalCoverage)
	}
	if c.LocalRestart < 0 {
		return fmt.Errorf("failure: negative local restart")
	}
	return nil
}

func (c Config) localCoverage() float64 {
	if c.LocalCoverage == 0 {
		return 0.9
	}
	return c.LocalCoverage
}

func (c Config) localRestart() simtime.Duration {
	if c.LocalRestart == 0 {
		return c.Restart / 10
	}
	return c.LocalRestart
}

func (c Config) shape() float64 {
	if c.Shape == 0 {
		return 1
	}
	return c.Shape
}

func (c Config) speedup() float64 {
	if c.ReplaySpeedup == 0 {
		return 2
	}
	return c.ReplaySpeedup
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
	cfg   Config
	proto checkpoint.Protocol
	ctx   *sim.Context
	evts  []Event
}

// ClusterProtocol is the extra capability RollbackCluster needs: protocols
// that can name a rank's rollback unit.
type ClusterProtocol interface {
	checkpoint.Protocol
	ClusterMembers(rank int) []int
}

// TwoLevelProtocol is the extra capability RecoverTwoLevel needs: a
// protocol exposing the progress its global (severe-failure) recovery line
// saved alongside the default (local) one.
type TwoLevelProtocol interface {
	checkpoint.Protocol
	GlobalProgressAt(rank int) simtime.Duration
}

// ReplicaProtocol is the extra capability TakeoverReplica needs: a protocol
// that absorbs a rank failure by replica takeover. Takeover returns the
// logical rank that stalls, the CPU seizure modeling detection plus
// promotion, and whether the failure stalls the application at all (a
// spare-replica loss does not).
type ReplicaProtocol interface {
	checkpoint.Protocol
	Takeover(victim int, now simtime.Time) (rank int, cost simtime.Duration, stalls bool)
}

// NewInjector builds a failure injector coupled to the protocol that
// defines the recovery lines.
func NewInjector(cfg Config, proto checkpoint.Protocol) (*Injector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if proto == nil {
		return nil, fmt.Errorf("failure: nil protocol")
	}
	if cfg.Kind == RollbackCluster {
		if _, ok := proto.(ClusterProtocol); !ok {
			return nil, fmt.Errorf("failure: cluster rollback needs a protocol with ClusterMembers (have %s)",
				proto.Name())
		}
	}
	if cfg.Kind == RecoverTwoLevel {
		if _, ok := proto.(TwoLevelProtocol); !ok {
			return nil, fmt.Errorf("failure: two-level recovery needs a two-level protocol (have %s)",
				proto.Name())
		}
	}
	if cfg.Kind == TakeoverReplica {
		if _, ok := proto.(ReplicaProtocol); !ok {
			return nil, fmt.Errorf("failure: replica takeover needs a replication protocol (have %s)",
				proto.Name())
		}
	}
	return &Injector{cfg: cfg, proto: proto}, nil
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

func (f *Injector) fail() {
	now := f.ctx.Now()
	victim := f.ctx.Rand().Intn(f.ctx.NumRanks())
	switch f.cfg.Kind {
	case RollbackGlobal:
		// Every rank rolls back to the last global line and re-executes its
		// own progress since then; the recorded event carries the critical
		// path (the maximum rework).
		var maxRework simtime.Duration
		for r := 0; r < f.ctx.NumRanks(); r++ {
			if w := f.rework(r); w > maxRework {
				maxRework = w
			}
		}
		for r := 0; r < f.ctx.NumRanks(); r++ {
			f.ctx.SeizeCPU(r, f.cfg.Restart+f.rework(r), Reason, sim.Call{})
		}
		f.evts = append(f.evts, Event{Time: now, Rank: victim,
			LostWork: maxRework, Recovery: f.cfg.Restart + maxRework})
	case ReplayLocal:
		// Only the victim rolls back, to its own last checkpoint, and
		// replays at a speedup because logged messages are ready.
		lost := f.rework(victim)
		rec := f.cfg.Restart + lost.Scale(1/f.cfg.speedup())
		f.evts = append(f.evts, Event{Time: now, Rank: victim, LostWork: lost, Recovery: rec})
		f.ctx.SeizeCPU(victim, rec, Reason, sim.Call{})
	case RollbackCluster:
		// The victim's whole cluster rolls back to its cluster line and
		// re-executes together, replaying inter-cluster messages from logs.
		members := f.proto.(ClusterProtocol).ClusterMembers(victim)
		var maxRework simtime.Duration
		for _, r := range members {
			if w := f.rework(r); w > maxRework {
				maxRework = w
			}
		}
		for _, r := range members {
			f.ctx.SeizeCPU(r, f.cfg.Restart+f.rework(r).Scale(1/f.cfg.speedup()), Reason, sim.Call{})
		}
		f.evts = append(f.evts, Event{Time: now, Rank: victim,
			LostWork: maxRework, Recovery: f.cfg.Restart + maxRework.Scale(1/f.cfg.speedup())})
	case RecoverTwoLevel:
		// Severity draw: local-level recovery covers most failures; the
		// rest fall through to the global line.
		tl := f.proto.(TwoLevelProtocol)
		n := f.ctx.NumRanks()
		if f.ctx.Rand().Float64() < f.cfg.localCoverage() {
			var maxRework simtime.Duration
			for r := 0; r < n; r++ {
				if w := f.rework(r); w > maxRework {
					maxRework = w
				}
			}
			for r := 0; r < n; r++ {
				f.ctx.SeizeCPU(r, f.cfg.localRestart()+f.rework(r), Reason, sim.Call{})
			}
			f.evts = append(f.evts, Event{Time: now, Rank: victim,
				LostWork: maxRework, Recovery: f.cfg.localRestart() + maxRework})
		} else {
			reworkG := func(r int) simtime.Duration {
				return f.ctx.RankBusy(r) - tl.GlobalProgressAt(r)
			}
			var maxRework simtime.Duration
			for r := 0; r < n; r++ {
				if w := reworkG(r); w > maxRework {
					maxRework = w
				}
			}
			for r := 0; r < n; r++ {
				f.ctx.SeizeCPU(r, f.cfg.Restart+reworkG(r), Reason, sim.Call{})
			}
			f.evts = append(f.evts, Event{Time: now, Rank: victim,
				LostWork: maxRework, Recovery: f.cfg.Restart + maxRework})
		}
	case TakeoverReplica:
		// No rollback ever: a failed primary stalls for detection plus
		// promotion while its replica takes over with all progress intact;
		// a failed spare replica is absorbed for free.
		f.ctx.Mark(victim, "rep-failure", int64(victim))
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
