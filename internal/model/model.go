// Package model implements the closed-form checkpointing performance
// models the simulation results are validated against: Young's and Daly's
// optimal checkpoint intervals, Daly's expected-runtime model under
// exponential failures, the binomial-tree coordination cost model, and
// first-order efficiency-at-scale projections for the coordinated and
// uncoordinated protocols.
//
// All durations are float64 seconds in this package — the closed forms
// involve exp/sqrt and gain nothing from integer nanoseconds. Conversions
// from simtime happen at the caller.
package model

import (
	"math"
	"math/bits"

	"checkpointsim/internal/checkpoint"
	"checkpointsim/internal/network"
)

// YoungInterval returns Young's first-order optimal checkpoint interval
// τ = sqrt(2·δ·M), where δ is the checkpoint cost and M the (system) MTBF,
// in seconds.
func YoungInterval(delta, mtbf float64) float64 {
	if delta <= 0 || mtbf <= 0 {
		return math.NaN()
	}
	return math.Sqrt(2 * delta * mtbf)
}

// DalyInterval returns Daly's higher-order optimal interval:
//
//	τ = sqrt(2δM)·[1 + (1/3)·sqrt(δ/(2M)) + (1/9)·(δ/(2M))] − δ   for δ < 2M
//	τ = M                                                          otherwise
func DalyInterval(delta, mtbf float64) float64 {
	if delta <= 0 || mtbf <= 0 {
		return math.NaN()
	}
	if delta >= 2*mtbf {
		return mtbf
	}
	x := delta / (2 * mtbf)
	return math.Sqrt(2*delta*mtbf)*(1+math.Sqrt(x)/3+x/9) - delta
}

// ExpectedRuntime returns Daly's expected total wall-clock time to complete
// Ts seconds of useful work with checkpoint cost delta, restart cost r,
// system MTBF M, and checkpoint interval tau (all seconds), under
// exponential failures:
//
//	T = M·e^{r/M}·(e^{(τ+δ)/M} − 1)·Ts/τ
func ExpectedRuntime(ts, delta, r, mtbf, tau float64) float64 {
	if ts < 0 || delta < 0 || r < 0 || mtbf <= 0 || tau <= 0 {
		return math.NaN()
	}
	return mtbf * math.Exp(r/mtbf) * (math.Exp((tau+delta)/mtbf) - 1) * ts / tau
}

// Efficiency returns useful-work efficiency Ts/T for the given parameters.
func Efficiency(delta, r, mtbf, tau float64) float64 {
	t := ExpectedRuntime(1, delta, r, mtbf, tau)
	if math.IsNaN(t) || t <= 0 {
		return math.NaN()
	}
	return 1 / t
}

// SystemMTBF returns the machine MTBF given per-node MTBF and node count.
func SystemMTBF(nodeMTBF float64, nodes int) float64 {
	if nodes <= 0 || nodeMTBF <= 0 {
		return math.NaN()
	}
	return nodeMTBF / float64(nodes)
}

// TreeDepth returns the binomial-tree depth used by the coordination
// protocol: the maximum popcount over virtual ranks below p. Closed form in
// O(log p): the maximum is attained either at x = p-1 itself or at one of
// the values obtained from x by clearing a set bit and setting every bit
// below it (each such value is < x, and any v < p agrees with x on some
// prefix, has a 0 where x has 1, and is maximized by all-ones below — so
// every candidate maximum is of this shape).
func TreeDepth(p int) int {
	if p <= 1 {
		return 0
	}
	x := uint(p - 1)
	best := bits.OnesCount(x)
	for i := 0; i < bits.Len(x); i++ {
		if x&(1<<i) != 0 {
			cand := (x &^ (1 << i)) | (1<<i - 1)
			if c := bits.OnesCount(cand); c > best {
				best = c
			}
		}
	}
	return best
}

// CoordinationDelay returns the closed-form minimum latency of one
// two-sweep (request + ack) coordination pass over a binomial tree of p
// ranks with control messages of checkpoint.ControlBytes, on an otherwise
// idle machine: 2·depth hops, each costing SendCPU + Wire + RecvCPU.
// Synchronization idling (waiting for ranks to reach an op boundary) comes
// on top of this — that gap is exactly what experiment E3 measures.
func CoordinationDelay(p int, net network.Params) float64 {
	const b = checkpoint.ControlBytes
	depth := TreeDepth(p)
	hop := net.SendCPU(b) + net.Wire(b) + net.RecvCPU(b)
	return 2 * float64(depth) * hop.Seconds()
}

// ProtocolProjection holds the inputs of a first-order protocol-efficiency
// projection at one scale.
type ProtocolProjection struct {
	// Nodes is the machine size P.
	Nodes int
	// NodeMTBF is the per-node MTBF in seconds.
	NodeMTBF float64
	// Write is the per-checkpoint write cost δ in seconds.
	Write float64
	// Restart is the recovery restart cost in seconds.
	Restart float64
	// CoordDelay is the per-round coordination cost in seconds (coordinated
	// protocols; 0 for uncoordinated).
	CoordDelay float64
	// LogOverhead is the fractional slowdown of useful work due to message
	// logging (uncoordinated protocols; 0 for coordinated).
	LogOverhead float64
	// ReplaySpeedup is the log-replay speedup (uncoordinated; 0 → 2).
	ReplaySpeedup float64
}

// CoordinatedEfficiency projects the efficiency of globally coordinated
// checkpointing at the Daly-optimal interval: the effective checkpoint cost
// is δ + coordination, all ranks lose rolled-back work together.
func CoordinatedEfficiency(pr ProtocolProjection) float64 {
	m := SystemMTBF(pr.NodeMTBF, pr.Nodes)
	deltaEff := pr.Write + pr.CoordDelay
	tau := DalyInterval(deltaEff, m)
	if math.IsNaN(tau) || tau <= 0 {
		return math.NaN()
	}
	return Efficiency(deltaEff, pr.Restart, m, tau)
}

// UncoordinatedEfficiency projects the efficiency of uncoordinated
// checkpointing with message logging: useful work is stretched by the
// logging overhead; failures cost only the failed rank's rework, replayed
// at a speedup, so the machine-level penalty per failure is the restart
// plus lost/speedup (others largely overlap — the first-order model treats
// the machine as stalled for that long, a pessimistic bound for loosely
// coupled codes and a reasonable one for tightly coupled codes).
func UncoordinatedEfficiency(pr ProtocolProjection) float64 {
	m := SystemMTBF(pr.NodeMTBF, pr.Nodes)
	sp := pr.ReplaySpeedup
	if sp == 0 {
		sp = 2
	}
	tau := DalyInterval(pr.Write, m*sp) // rework is cheaper by the speedup
	if math.IsNaN(tau) || tau <= 0 {
		return math.NaN()
	}
	eff := Efficiency(pr.Write, pr.Restart, m*sp, tau)
	return eff / (1 + pr.LogOverhead)
}

// TwoLevelIntervals returns the per-level checkpoint intervals for a
// two-level protocol: each level is given Daly's optimal interval for the
// failure rate it actually serves. With system MTBF M and local coverage c
// (the fraction of failures recoverable from the fast level), the local
// level sees an effective MTBF of M/c and the global level M/(1−c). The
// global interval is clamped to at least the local one (levels must not
// invert). This is the first-order version of the multilevel interval
// optimization (Di/Cappello-style); experiment E16 shows it is the
// difference between multilevel checkpointing winning and losing.
func TwoLevelIntervals(deltaLocal, deltaGlobal, mtbf, coverage float64) (tauLocal, tauGlobal float64) {
	if !(coverage > 0 && coverage < 1) || mtbf <= 0 {
		return math.NaN(), math.NaN()
	}
	tauLocal = DalyInterval(deltaLocal, mtbf/coverage)
	tauGlobal = DalyInterval(deltaGlobal, mtbf/(1-coverage))
	if tauGlobal < tauLocal {
		tauGlobal = tauLocal
	}
	return tauLocal, tauGlobal
}
