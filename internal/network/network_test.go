package network

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"checkpointsim/internal/simtime"
)

func TestValidate(t *testing.T) {
	for _, p := range []Params{DefaultParams(), CapabilityClassParams(), EthernetClassParams(), {}} {
		if err := p.Validate(); err != nil {
			t.Errorf("%v should validate: %v", p, err)
		}
	}
	bad := []Params{
		{Latency: -1},
		{Overhead: -1},
		{Gap: -1},
		{GapPerByte: -0.5},
		{OverheadPerByte: -0.5},
		{RendezvousThreshold: -1},
		{GapPerByte: math.NaN()},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad params %d validated", i)
		}
	}
}

func TestPerByteChargesSMinusOne(t *testing.T) {
	p := Params{GapPerByte: 2}
	// 1-byte message: no per-byte component.
	if got := p.Wire(1); got != 0 {
		t.Errorf("Wire(1) = %v, want 0 (L=0)", got)
	}
	// 11-byte message at 2 ns/B: 20 ns.
	if got := p.Wire(11); got != 20 {
		t.Errorf("Wire(11) = %v, want 20", got)
	}
	// Zero-size message behaves like one byte.
	if got := p.Wire(0); got != 0 {
		t.Errorf("Wire(0) = %v", got)
	}
}

func TestSendRecvCPU(t *testing.T) {
	p := Params{Overhead: 100, OverheadPerByte: 1}
	if got := p.SendCPU(1); got != 100 {
		t.Errorf("SendCPU(1) = %v", got)
	}
	if got := p.SendCPU(51); got != 150 {
		t.Errorf("SendCPU(51) = %v", got)
	}
	if p.RecvCPU(51) != p.SendCPU(51) {
		t.Error("symmetric o/O model should have equal send/recv CPU")
	}
}

func TestNIC(t *testing.T) {
	p := Params{Gap: 10, GapPerByte: 0.5}
	if got := p.NIC(1); got != 10 {
		t.Errorf("NIC(1) = %v", got)
	}
	if got := p.NIC(101); got != 60 {
		t.Errorf("NIC(101) = %v", got)
	}
}

func TestEagerThreshold(t *testing.T) {
	p := Params{RendezvousThreshold: 1024}
	if !p.Eager(1023) || p.Eager(1024) || p.Eager(4096) {
		t.Error("eager threshold boundary wrong")
	}
	p.RendezvousThreshold = 0
	if !p.Eager(1 << 40) {
		t.Error("threshold 0 should disable rendezvous")
	}
}

func TestPingPongClosedForm(t *testing.T) {
	p := DefaultParams()
	s := int64(8)
	want := 2*p.Overhead + p.Latency +
		simtime.Duration(math.Round(p.GapPerByte*float64(s-1))) +
		simtime.Duration(math.Round(p.OverheadPerByte*float64(s-1)))*2
	if got := p.PingPong(s); got != want {
		t.Errorf("PingPong(8) = %v, want %v", got, want)
	}
}

func TestBandwidth(t *testing.T) {
	p := Params{GapPerByte: 0.5}
	if got := p.Bandwidth(); got != 2e9 {
		t.Errorf("Bandwidth = %v, want 2e9", got)
	}
	p.GapPerByte = 0
	if !math.IsInf(p.Bandwidth(), 1) {
		t.Error("zero G should give infinite bandwidth")
	}
}

func TestString(t *testing.T) {
	if DefaultParams().String() == "" {
		t.Error("empty String")
	}
}

func TestPresetsAreOrdered(t *testing.T) {
	// Sanity: capability machines are faster than default, which is faster
	// than ethernet.
	cap, def, eth := CapabilityClassParams(), DefaultParams(), EthernetClassParams()
	if !(cap.Latency < def.Latency && def.Latency < eth.Latency) {
		t.Error("latency ordering wrong")
	}
	if !(cap.GapPerByte < def.GapPerByte && def.GapPerByte < eth.GapPerByte) {
		t.Error("bandwidth ordering wrong")
	}
}

func TestPreset(t *testing.T) {
	for _, tc := range []struct {
		name string
		want Params
	}{
		{"default", DefaultParams()},
		{"capability", CapabilityClassParams()},
		{"ethernet", EthernetClassParams()},
	} {
		got, err := Preset(tc.name)
		if err != nil || got != tc.want {
			t.Errorf("Preset(%q) = %+v, %v; want %+v", tc.name, got, err, tc.want)
		}
	}
	for _, name := range []string{"", "bogus", "Default"} {
		if _, err := Preset(name); err == nil || err.Error() != fmt.Sprintf("unknown network preset %q", name) {
			t.Errorf("Preset(%q) error = %v, want unknown network preset", name, err)
		}
	}
}

// Property: all cost functions are monotone non-decreasing in message size.
func TestQuickMonotoneInSize(t *testing.T) {
	p := DefaultParams()
	f := func(a, b uint32) bool {
		x, y := int64(a), int64(b)
		if x > y {
			x, y = y, x
		}
		return p.SendCPU(x) <= p.SendCPU(y) &&
			p.RecvCPU(x) <= p.RecvCPU(y) &&
			p.NIC(x) <= p.NIC(y) &&
			p.Wire(x) <= p.Wire(y) &&
			p.PingPong(x) <= p.PingPong(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: costs are non-negative for any size.
func TestQuickNonNegative(t *testing.T) {
	p := EthernetClassParams()
	f := func(a uint32) bool {
		s := int64(a)
		return p.SendCPU(s) >= 0 && p.NIC(s) >= 0 && p.Wire(s) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFabricOccupancy(t *testing.T) {
	p := Params{BisectionBytesPerSec: 1e9}
	if got := p.FabricOccupancy(1e9); got != simtime.Second {
		t.Errorf("occupancy = %v, want 1s", got)
	}
	if got := p.FabricOccupancy(0); got != 0 {
		t.Errorf("zero bytes occupancy = %v", got)
	}
	p.BisectionBytesPerSec = 0
	if got := p.FabricOccupancy(1 << 30); got != 0 {
		t.Errorf("unconstrained occupancy = %v", got)
	}
}

func TestBisectionValidation(t *testing.T) {
	p := DefaultParams()
	p.BisectionBytesPerSec = -1
	if err := p.Validate(); err == nil {
		t.Error("negative bisection accepted")
	}
	p.BisectionBytesPerSec = math.NaN()
	if err := p.Validate(); err == nil {
		t.Error("NaN bisection accepted")
	}
}
