// Package network implements the LogGOPS point-to-point communication cost
// model used by the simulator.
//
// LogGOPS extends LogP/LogGP with per-byte CPU overhead (O) and an explicit
// eager/rendezvous protocol switch (S). The parameters are:
//
//	L — wire latency for the first byte of a message
//	o — per-message CPU overhead charged to sender and receiver
//	g — per-message gap: minimum interval between message injections (NIC)
//	G — per-byte gap: inverse bandwidth on the wire
//	O — per-byte CPU overhead: memory-copy cost on the hosts
//	S — rendezvous threshold: messages of at least S bytes use a
//	    request-to-send / clear-to-send handshake and cannot be delivered
//	    before the receiver has posted a matching receive
//
// The model is congestion-free between distinct node pairs, matching the
// authors' LogGOPSim simulator: only per-endpoint serialization (o on the
// CPU, g+G on the NIC) limits throughput. Per-byte parameters are float64
// nanoseconds-per-byte because realistic values are sub-nanosecond; all
// computed durations are rounded to integer nanoseconds once, at the edge.
package network

import (
	"fmt"
	"math"

	"checkpointsim/internal/simtime"
)

// Params holds a LogGOPS parameter set.
type Params struct {
	// Latency is L: the time for the first byte to cross the wire.
	Latency simtime.Duration
	// Overhead is o: CPU time charged per message at sender and receiver.
	Overhead simtime.Duration
	// Gap is g: minimum interval between consecutive message injections
	// at one NIC.
	Gap simtime.Duration
	// GapPerByte is G in ns/byte: inverse wire bandwidth.
	GapPerByte float64
	// OverheadPerByte is O in ns/byte: per-byte host CPU (copy) cost.
	OverheadPerByte float64
	// RendezvousThreshold is S in bytes: messages >= S use rendezvous.
	// Zero disables rendezvous (all messages eager).
	RendezvousThreshold int64
	// BisectionBytesPerSec, when positive, models a finite aggregate
	// fabric: all messages additionally serialize through a shared
	// resource at this bandwidth. Zero leaves the fabric unconstrained
	// (the classic congestion-free LogGOPS assumption).
	BisectionBytesPerSec float64
}

// Validate reports whether the parameter set is physically sensible.
func (p Params) Validate() error {
	if p.Latency < 0 || p.Overhead < 0 || p.Gap < 0 {
		return fmt.Errorf("network: negative time parameter: %+v", p)
	}
	if p.GapPerByte < 0 || p.OverheadPerByte < 0 {
		return fmt.Errorf("network: negative per-byte parameter: %+v", p)
	}
	if p.RendezvousThreshold < 0 {
		return fmt.Errorf("network: negative rendezvous threshold")
	}
	if math.IsNaN(p.GapPerByte) || math.IsNaN(p.OverheadPerByte) ||
		math.IsInf(p.GapPerByte, 0) || math.IsInf(p.OverheadPerByte, 0) {
		return fmt.Errorf("network: non-finite per-byte parameter")
	}
	if p.BisectionBytesPerSec < 0 || math.IsNaN(p.BisectionBytesPerSec) {
		return fmt.Errorf("network: bad bisection bandwidth %v", p.BisectionBytesPerSec)
	}
	return nil
}

// HasFabric reports whether the parameter set models a shared fabric
// (BisectionBytesPerSec > 0).
func (p Params) HasFabric() bool { return p.BisectionBytesPerSec > 0 }

// FabricOccupancy returns how long a message of the given size occupies the
// shared fabric, or 0 when the fabric is unconstrained.
func (p Params) FabricOccupancy(bytes int64) simtime.Duration {
	if !p.HasFabric() || bytes <= 0 {
		return 0
	}
	return simtime.FromSeconds(float64(bytes) / p.BisectionBytesPerSec)
}

// perByte converts a float ns/byte rate applied to n bytes into a Duration.
// LogGP charges (s-1) per-byte units for an s-byte message: the first byte
// is covered by L / o / g, so messages of at most one byte charge nothing.
// It is branch-free so that the four cost methods below stay within the
// compiler's inlining budget: every message pays for them. Validate keeps
// rate finite and non-negative, so rate·0 is 0.
func perByte(rate float64, bytes int64) simtime.Duration {
	return simtime.Duration(math.Round(rate * float64(max(bytes, 1)-1)))
}

// SendCPU returns the sender CPU time for a message of the given size:
// o + (s-1)·O.
func (p Params) SendCPU(bytes int64) simtime.Duration {
	return p.Overhead + perByte(p.OverheadPerByte, bytes)
}

// RecvCPU returns the receiver CPU time for a message of the given size:
// o + (s-1)·O.
func (p Params) RecvCPU(bytes int64) simtime.Duration {
	return p.Overhead + perByte(p.OverheadPerByte, bytes)
}

// NIC returns the NIC occupancy for injecting a message of the given size:
// g + (s-1)·G. A rank cannot inject two messages closer together than this.
func (p Params) NIC(bytes int64) simtime.Duration {
	return p.Gap + perByte(p.GapPerByte, bytes)
}

// Wire returns the time from injection to arrival of the last byte:
// L + (s-1)·G.
func (p Params) Wire(bytes int64) simtime.Duration {
	return p.Latency + perByte(p.GapPerByte, bytes)
}

// Eager reports whether a message of the given size uses the eager protocol.
func (p Params) Eager(bytes int64) bool {
	return p.RendezvousThreshold == 0 || bytes < p.RendezvousThreshold
}

// String renders the parameter set compactly.
func (p Params) String() string {
	return fmt.Sprintf("LogGOPS{L=%v o=%v g=%v G=%.3gns/B O=%.3gns/B S=%dB}",
		p.Latency, p.Overhead, p.Gap, p.GapPerByte, p.OverheadPerByte,
		p.RendezvousThreshold)
}

// DefaultParams returns the parameter set used throughout the experiments:
// an InfiniBand-class commodity cluster of the paper's era (≈2014).
// L = 5 µs, o = 2 µs, g = 3 µs, G = 0.3 ns/B (≈3.3 GB/s), O = 0.02 ns/B,
// S = 64 KiB.
func DefaultParams() Params {
	return Params{
		Latency:             5 * simtime.Microsecond,
		Overhead:            2 * simtime.Microsecond,
		Gap:                 3 * simtime.Microsecond,
		GapPerByte:          0.3,
		OverheadPerByte:     0.02,
		RendezvousThreshold: 64 * 1024,
	}
}

// OrDefault returns p, or DefaultParams when p is the zero value: every
// configuration that leaves its network unset runs on the default one.
func (p Params) OrDefault() Params {
	if p == (Params{}) {
		return DefaultParams()
	}
	return p
}

// CapabilityClassParams returns a parameter set for a capability-class MPP
// (Blue Gene / Cray class: lower latency and overhead, higher bandwidth).
// L = 2 µs, o = 0.5 µs, g = 1 µs, G = 0.15 ns/B (≈6.7 GB/s), S = 32 KiB.
func CapabilityClassParams() Params {
	return Params{
		Latency:             2 * simtime.Microsecond,
		Overhead:            500 * simtime.Nanosecond,
		Gap:                 1 * simtime.Microsecond,
		GapPerByte:          0.15,
		OverheadPerByte:     0.01,
		RendezvousThreshold: 32 * 1024,
	}
}

// EthernetClassParams returns a parameter set for a commodity 10 GbE
// cluster: higher latency and software overheads.
// L = 20 µs, o = 5 µs, g = 10 µs, G = 0.8 ns/B (≈1.25 GB/s), S = 16 KiB.
func EthernetClassParams() Params {
	return Params{
		Latency:             20 * simtime.Microsecond,
		Overhead:            5 * simtime.Microsecond,
		Gap:                 10 * simtime.Microsecond,
		GapPerByte:          0.8,
		OverheadPerByte:     0.05,
		RendezvousThreshold: 16 * 1024,
	}
}

// Preset returns the parameter set named by a CLI or request preset:
// "default", "capability" or "ethernet".
func Preset(name string) (Params, error) {
	switch name {
	case "default":
		return DefaultParams(), nil
	case "capability":
		return CapabilityClassParams(), nil
	case "ethernet":
		return EthernetClassParams(), nil
	}
	return Params{}, fmt.Errorf("unknown network preset %q", name)
}
