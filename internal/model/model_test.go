package model

import (
	"math"
	"testing"
	"testing/quick"

	"checkpointsim/internal/network"
)

func TestYoungInterval(t *testing.T) {
	// δ=60s, M=12h: τ = sqrt(2*60*43200) = 2276.8s.
	got := YoungInterval(60, 43200)
	if math.Abs(got-2276.84) > 0.1 {
		t.Errorf("Young = %v", got)
	}
	if !math.IsNaN(YoungInterval(0, 1)) || !math.IsNaN(YoungInterval(1, -1)) {
		t.Error("degenerate inputs should give NaN")
	}
}

func TestDalyReducesToYoungForSmallDelta(t *testing.T) {
	// For δ << M, Daly ≈ Young − δ.
	delta, m := 1.0, 1e6
	young := YoungInterval(delta, m)
	daly := DalyInterval(delta, m)
	if math.Abs(daly-(young-delta)) > 0.01*young {
		t.Errorf("Daly %v vs Young-δ %v", daly, young-delta)
	}
}

func TestDalyLargeDeltaClamp(t *testing.T) {
	if got := DalyInterval(10, 4); got != 4 {
		t.Errorf("Daly(δ>=2M) = %v, want M", got)
	}
}

func TestExpectedRuntimeSanity(t *testing.T) {
	// No failures in the limit M→∞: T → Ts·(1 + δ/τ).
	ts, delta, tau := 3600.0, 10.0, 100.0
	got := ExpectedRuntime(ts, delta, 0, 1e12, tau)
	want := ts * (tau + delta) / tau
	if math.Abs(got-want) > 1e-3*want {
		t.Errorf("runtime %v, want ~%v", got, want)
	}
	// Runtime exceeds useful work.
	if ExpectedRuntime(100, 5, 5, 1000, 50) <= 100 {
		t.Error("runtime should exceed useful work")
	}
	if !math.IsNaN(ExpectedRuntime(1, 1, 1, 0, 1)) {
		t.Error("bad MTBF should give NaN")
	}
}

func TestDalyIntervalIsNearOptimal(t *testing.T) {
	// The closed-form optimum should be within a few percent of the
	// numeric optimum in runtime terms.
	for _, c := range []struct{ delta, r, m float64 }{
		{10, 10, 3600},
		{60, 120, 7200},
		{5, 5, 500},
		{1, 1, 86400},
	} {
		tauD := DalyInterval(c.delta, c.m)
		tauN := OptimalIntervalNumeric(c.delta, c.r, c.m, c.delta/10, c.m*10)
		rd := ExpectedRuntime(1, c.delta, c.r, c.m, tauD)
		rn := ExpectedRuntime(1, c.delta, c.r, c.m, tauN)
		if rd > rn*1.02 {
			t.Errorf("δ=%v M=%v: Daly runtime %v vs numeric %v (τ %v vs %v)",
				c.delta, c.m, rd, rn, tauD, tauN)
		}
	}
}

func TestEfficiencyBounds(t *testing.T) {
	eff := Efficiency(10, 10, 3600, DalyInterval(10, 3600))
	if eff <= 0 || eff >= 1 {
		t.Errorf("efficiency = %v, want in (0,1)", eff)
	}
	// Longer MTBF → higher efficiency at respective optima.
	effBad := Efficiency(10, 10, 100, DalyInterval(10, 100))
	if effBad >= eff {
		t.Errorf("efficiency should degrade with failures: %v vs %v", effBad, eff)
	}
}

func TestSystemMTBF(t *testing.T) {
	if got := SystemMTBF(86400, 24); got != 3600 {
		t.Errorf("SystemMTBF = %v", got)
	}
	if !math.IsNaN(SystemMTBF(0, 5)) || !math.IsNaN(SystemMTBF(5, 0)) {
		t.Error("degenerate inputs should give NaN")
	}
}

func TestTreeDepth(t *testing.T) {
	// Brute-force reference: max popcount over all virtual ranks below p.
	brute := func(p int) int {
		want := 0
		for v := 0; v < p; v++ {
			c := 0
			for x := v; x > 0; x &= x - 1 {
				c++
			}
			if c > want {
				want = c
			}
		}
		return want
	}
	for p := 1; p <= 5000; p++ {
		if got := TreeDepth(p); got != brute(p) {
			t.Fatalf("TreeDepth(%d) = %d, want %d", p, got, brute(p))
		}
	}
	// Adversarial shapes around powers of two and all-ones runs, where the
	// closed form's candidate set is exercised hardest.
	for _, base := range []int{1 << 10, 1 << 16, 1 << 20} {
		for d := -3; d <= 3; d++ {
			p := base + d
			if got := TreeDepth(p); got != brute(p) {
				t.Fatalf("TreeDepth(%d) = %d, want %d", p, got, brute(p))
			}
		}
	}
	cases := map[int]int{1: 0, 2: 1, 4: 2, 8: 3, 1024: 10, 1025: 10}
	for p, want := range cases {
		if got := TreeDepth(p); got != want {
			t.Errorf("TreeDepth(%d) = %d, want %d", p, got, want)
		}
	}
}

func TestCoordinationDelayGrowsLogarithmically(t *testing.T) {
	net := network.DefaultParams()
	d64 := CoordinationDelay(64, net)
	d4096 := CoordinationDelay(4096, net)
	if d64 <= 0 {
		t.Fatal("zero coordination delay")
	}
	if ratio := d4096 / d64; math.Abs(ratio-2.0) > 0.01 {
		t.Errorf("coordination 4096/64 ratio = %v, want 2 (12/6 tree depth)", ratio)
	}
	if CoordinationDelay(1, net) != 0 {
		t.Error("single rank needs no coordination")
	}
}

func TestProjectionsBehave(t *testing.T) {
	base := ProtocolProjection{
		Nodes:    1024,
		NodeMTBF: 5 * 365 * 86400, // 5 years
		Write:    60,
		Restart:  120,
	}
	ce := CoordinatedEfficiency(base)
	ue := UncoordinatedEfficiency(base)
	if ce <= 0 || ce >= 1 || ue <= 0 || ue >= 1 {
		t.Fatalf("efficiencies out of range: %v %v", ce, ue)
	}
	// With zero logging overhead and replay speedup, uncoordinated wins.
	if !uncoordinatedWins(base) {
		t.Errorf("free logging should favor uncoordinated: %v vs %v", ue, ce)
	}
	// With crushing logging overhead, coordinated wins.
	heavy := base
	heavy.LogOverhead = 2.0
	if uncoordinatedWins(heavy) {
		t.Errorf("200%% logging overhead should favor coordinated")
	}
}

func TestCrossoverMovesWithScale(t *testing.T) {
	// At modest logging overhead, coordinated wins at small P and
	// uncoordinated wins at large P.
	pr := ProtocolProjection{
		NodeMTBF:    5 * 365 * 86400,
		Write:       120,
		Restart:     120,
		LogOverhead: 0.10,
	}
	small := pr
	small.Nodes = 8
	big := pr
	big.Nodes = 262144
	if uncoordinatedWins(small) {
		t.Errorf("uncoordinated should lose at P=8: u=%v c=%v",
			UncoordinatedEfficiency(small), CoordinatedEfficiency(small))
	}
	if !uncoordinatedWins(big) {
		t.Errorf("uncoordinated should win at P=256k: u=%v c=%v",
			UncoordinatedEfficiency(big), CoordinatedEfficiency(big))
	}
}

// Property: expected runtime is minimized near the numeric optimum —
// perturbing τ away from it never helps.
func TestQuickNumericOptimum(t *testing.T) {
	f := func(a, b uint8) bool {
		delta := float64(a)/8 + 0.5
		m := float64(b)*20 + 100
		tau := OptimalIntervalNumeric(delta, delta, m, delta/10, m*10)
		r0 := ExpectedRuntime(1, delta, delta, m, tau)
		return ExpectedRuntime(1, delta, delta, m, tau*1.3) >= r0*0.999 &&
			ExpectedRuntime(1, delta, delta, m, tau/1.3) >= r0*0.999
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: efficiency is always in (0, 1] and decreases as δ grows.
func TestQuickEfficiencyMonotoneInDelta(t *testing.T) {
	f := func(a uint8) bool {
		m := 10000.0
		d1 := float64(a%50) + 1
		d2 := d1 * 2
		e1 := Efficiency(d1, 10, m, DalyInterval(d1, m))
		e2 := Efficiency(d2, 10, m, DalyInterval(d2, m))
		return e1 > 0 && e1 <= 1 && e2 <= e1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTwoLevelIntervals(t *testing.T) {
	// δ_L=0.1ms, δ_G=4ms, M=125ms, coverage 0.8.
	tl, tg := TwoLevelIntervals(0.0001, 0.004, 0.125, 0.8)
	if math.IsNaN(tl) || math.IsNaN(tg) {
		t.Fatal("NaN intervals")
	}
	if tl >= tg {
		t.Errorf("local interval %v should be below global %v", tl, tg)
	}
	// Each matches Daly at the per-level rates.
	if want := DalyInterval(0.0001, 0.125/0.8); math.Abs(tl-want) > 1e-12 {
		t.Errorf("tauL = %v, want %v", tl, want)
	}
	if want := DalyInterval(0.004, 0.125/0.2); math.Abs(tg-want) > 1e-12 {
		t.Errorf("tauG = %v, want %v", tg, want)
	}
	// Higher coverage stretches the global interval.
	_, tg95 := TwoLevelIntervals(0.0001, 0.004, 0.125, 0.95)
	if tg95 <= tg {
		t.Errorf("coverage 0.95 global interval %v not above 0.8's %v", tg95, tg)
	}
	// Degenerate inputs.
	if a, b := TwoLevelIntervals(1, 1, 1, 0); !math.IsNaN(a) || !math.IsNaN(b) {
		t.Error("coverage 0 should give NaN")
	}
	if a, _ := TwoLevelIntervals(1, 1, 0, 0.5); !math.IsNaN(a) {
		t.Error("zero MTBF should give NaN")
	}
	// Clamp: huge local write with tiny global write cannot invert levels.
	tl2, tg2 := TwoLevelIntervals(1.0, 0.0001, 10, 0.5)
	if tg2 < tl2 {
		t.Errorf("levels inverted: %v > %v", tl2, tg2)
	}
}

// uncoordinatedWins reports whether the uncoordinated projection beats the
// coordinated one at the given point.
func uncoordinatedWins(pr ProtocolProjection) bool {
	return UncoordinatedEfficiency(pr) > CoordinatedEfficiency(pr)
}

// OptimalIntervalNumeric finds the runtime-minimizing interval by golden-
// section search over [lo, hi] (seconds): the oracle the closed forms are
// checked against.
func OptimalIntervalNumeric(delta, r, mtbf, lo, hi float64) float64 {
	if !(lo > 0) || !(hi > lo) {
		return math.NaN()
	}
	f := func(tau float64) float64 { return ExpectedRuntime(1, delta, r, mtbf, tau) }
	const phi = 0.6180339887498949
	a, b := lo, hi
	c := b - phi*(b-a)
	d := a + phi*(b-a)
	fc, fd := f(c), f(d)
	for i := 0; i < 200 && (b-a) > 1e-9*(1+b); i++ {
		if fc < fd {
			b, d, fd = d, c, fc
			c = b - phi*(b-a)
			fc = f(c)
		} else {
			a, c, fc = c, d, fd
			d = a + phi*(b-a)
			fd = f(d)
		}
	}
	return (a + b) / 2
}
