// Package noise injects OS-noise-style CPU perturbations into a
// simulation: fixed-frequency or Poisson detours of a given duration, per
// rank, with randomized phases (the netgauge/psnap measurement style).
//
// Its role here is the checkpoint-as-noise ablation: local checkpoint
// writes are, mechanically, low-frequency high-amplitude noise. Running the
// same duty cycle through this injector and through a checkpoint protocol
// separates "cost of being interrupted" from protocol-specific effects
// (coordination traffic, logging, recovery lines).
package noise

import (
	"fmt"

	"checkpointsim/internal/sim"
	"checkpointsim/internal/simtime"
	"checkpointsim/internal/snapshot"
)

// Reason is the accounting key noise seizures appear under.
const Reason = "noise"

// Config describes one noise source applied to every rank.
type Config struct {
	// Period is the interval between noise events on one rank (the
	// inverse of the noise frequency).
	Period simtime.Duration
	// Duration is the CPU time stolen per event.
	Duration simtime.Duration
	// Poisson draws exponentially distributed gaps with mean Period
	// instead of a fixed period.
	Poisson bool
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Period <= 0 {
		return fmt.Errorf("noise: non-positive period %v", c.Period)
	}
	if c.Duration < 0 {
		return fmt.Errorf("noise: negative duration %v", c.Duration)
	}
	if c.Duration >= c.Period {
		return fmt.Errorf("noise: duration %v >= period %v (duty cycle >= 1)",
			c.Duration, c.Period)
	}
	return nil
}

// Injector is the sim.Agent that injects the configured noise.
type Injector struct {
	cfg Config
	ctx *sim.Context
}

// NewInjector builds a noise injector.
func NewInjector(cfg Config) (*Injector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Injector{cfg: cfg}, nil
}

// Init implements sim.Agent: every rank gets an independent noise stream
// with a random initial phase.
func (n *Injector) Init(ctx *sim.Context) {
	n.ctx = ctx
	for r := 0; r < ctx.NumRanks(); r++ {
		phase := simtime.Duration(ctx.Rand().Intn(int(n.cfg.Period)))
		ctx.AtOwned(simtime.Time(0).Add(phase), n, 0, int64(r))
	}
}

// OnTimer implements sim.TimerOwner: arg is the rank whose stream fires.
func (n *Injector) OnTimer(_ uint8, arg int64) { n.fire(int(arg)) }

func (n *Injector) fire(rank int) {
	n.ctx.SeizeCPU(rank, n.cfg.Duration, Reason, sim.Call{})
	var gap simtime.Duration
	if n.cfg.Poisson {
		gap = simtime.Duration(n.ctx.Rand().Exp(float64(n.cfg.Period)))
		if gap < 1 {
			gap = 1
		}
	} else {
		gap = n.cfg.Period
	}
	n.ctx.AfterOwned(gap, n, 0, int64(rank))
}

// SnapshotState implements sim.Resumable. The injector's state is its
// pending timers, which the engine's queue carries; it writes nothing.
func (n *Injector) SnapshotState(ctx *sim.Context, _ *snapshot.Codec) {
	n.ctx = ctx
}

var (
	_ sim.Agent     = (*Injector)(nil)
	_ sim.Resumable = (*Injector)(nil)
)
