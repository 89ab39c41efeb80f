package simtime

import (
	"flag"
	"io"
	"math"
	"testing"
	"testing/quick"
)

func TestUnitsAreConsistent(t *testing.T) {
	if Microsecond != 1000*Nanosecond {
		t.Errorf("Microsecond = %d", Microsecond)
	}
	if Millisecond != 1000*Microsecond {
		t.Errorf("Millisecond = %d", Millisecond)
	}
	if Second != 1e9 {
		t.Errorf("Second = %d, want 1e9", Second)
	}
	if Minute != 60*Second || Hour != 60*Minute || Day != 24*Hour {
		t.Error("minute/hour/day inconsistent")
	}
	if Year != 8766*Hour {
		t.Errorf("Year = %d, want Julian year", Year)
	}
}

func TestAddSub(t *testing.T) {
	var tm Time = 100
	if got := tm.Add(50); got != 150 {
		t.Errorf("Add = %d", got)
	}
	if got := tm.Add(-200); got != -100 {
		t.Errorf("Add negative = %d", got)
	}
	if got := Time(500).Sub(200); got != 300 {
		t.Errorf("Sub = %d", got)
	}
}

func TestAddSaturatesAtInfinity(t *testing.T) {
	tm := Infinity - 10
	if got := tm.Add(100); got != Infinity {
		t.Errorf("Add overflow = %d, want Infinity", got)
	}
	if got := Infinity.Add(1); got != Infinity {
		t.Errorf("Infinity.Add = %d", got)
	}
	tm = Time(math.MinInt64 + 5)
	if got := tm.Add(-100); got != Time(math.MinInt64) {
		t.Errorf("Add underflow = %d", got)
	}
}

func TestSeconds(t *testing.T) {
	if got := (2 * Second).Seconds(); got != 2.0 {
		t.Errorf("Seconds = %v", got)
	}
	if got := (500 * Millisecond).Seconds(); got != 0.5 {
		t.Errorf("Seconds = %v", got)
	}
}

func TestScale(t *testing.T) {
	if got := Second.Scale(0.5); got != 500*Millisecond {
		t.Errorf("Scale = %v", got)
	}
	if got := Duration(3).Scale(1.0 / 3.0); got != 1 {
		t.Errorf("Scale rounding = %v", got)
	}
	if got := Forever.Scale(2); got != Forever {
		t.Errorf("Scale overflow = %v", got)
	}
	if got := Second.Scale(-1); got != -Second {
		t.Errorf("Scale negative = %v", got)
	}
}

func TestFromSeconds(t *testing.T) {
	if got := FromSeconds(1.5); got != 1500*Millisecond {
		t.Errorf("FromSeconds = %v", got)
	}
	if got := FromSeconds(1e300); got != Forever {
		t.Errorf("FromSeconds overflow = %v", got)
	}
	if got := FromSeconds(0); got != 0 {
		t.Errorf("FromSeconds zero = %v", got)
	}
}

func TestString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{0, "0s"},
		{250, "250ns"},
		{1500, "1.5us"},
		{2 * Millisecond, "2ms"},
		{1500 * Millisecond, "1.5s"},
		{90 * Second, "1.5m"},
		{36 * Hour, "1.5d"},
		{Forever, "inf"},
		{-250, "-250ns"},
		{-1500 * Millisecond, "-1.5s"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.d), got, c.want)
		}
	}
}

func TestParseDuration(t *testing.T) {
	cases := []struct {
		in   string
		want Duration
	}{
		{"100ns", 100},
		{"100", 100},
		{"2.5us", 2500},
		{"2.5µs", 2500},
		{"3ms", 3 * Millisecond},
		{"1.5s", 1500 * Millisecond},
		{"2m", 2 * Minute},
		{"2min", 2 * Minute},
		{"4h", 4 * Hour},
		{"7d", 7 * Day},
		{"5y", 5 * Year},
		{"-3ms", -3 * Millisecond},
		{"+3ms", 3 * Millisecond},
		{" 10us ", 10 * Microsecond},
		{"inf", Forever},
	}
	for _, c := range cases {
		got, err := ParseDuration(c.in)
		if err != nil {
			t.Errorf("ParseDuration(%q) error: %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseDuration(%q) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestParseDurationErrors(t *testing.T) {
	for _, in := range []string{"", "abc", "10xx", "ms", "1.2.3s", "--5s"} {
		if _, err := ParseDuration(in); err == nil {
			t.Errorf("ParseDuration(%q) succeeded, want error", in)
		}
	}
}

func TestParseStringRoundTrip(t *testing.T) {
	// String output must parse back to the same value for round values.
	for _, d := range []Duration{0, 1, 999, Microsecond, 42 * Millisecond,
		3 * Second, 90 * Second, 2 * Hour, Day, Year} {
		got, err := ParseDuration(d.String())
		if err != nil {
			t.Fatalf("ParseDuration(%q): %v", d.String(), err)
		}
		if got != d {
			t.Errorf("round trip %v: got %d want %d", d.String(), got, d)
		}
	}
}

func TestMinMax(t *testing.T) {
	if Max(1, 2) != 2 || Max(2, 1) != 2 {
		t.Error("Max wrong")
	}
	if MinDuration(3, 4) != 3 || MinDuration(4, 3) != 3 {
		t.Error("MinDuration wrong")
	}
}

// Property: Add is the inverse of Sub for in-range values.
func TestQuickAddSubInverse(t *testing.T) {
	f := func(a int32, b int32) bool {
		tm := Time(a)
		d := Duration(b)
		return tm.Add(d).Sub(tm) == d
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: String never returns empty and parses back within rounding for
// positive durations below a year.
func TestQuickStringParse(t *testing.T) {
	f := func(v uint32) bool {
		d := Duration(v)
		s := d.String()
		if s == "" {
			return false
		}
		p, err := ParseDuration(s)
		if err != nil {
			return false
		}
		// Three decimals of the display unit bound the round-trip error.
		diff := p - d
		if diff < 0 {
			diff = -diff
		}
		return float64(diff) <= 0.001*float64(d)+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// A *Duration is a flag.Value: the flag keeps the field's value as its
// default, parses with ParseDuration, and rejects what ParseDuration does.
func TestDurationFlag(t *testing.T) {
	d, untouched := 10*Millisecond, 3*Second
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	fs.Var(&d, "d", "")
	fs.Var(&untouched, "u", "")
	if err := fs.Parse([]string{"-d", "2.5us"}); err != nil {
		t.Fatal(err)
	}
	if d != 2500*Nanosecond || untouched != 3*Second {
		t.Errorf("d = %v, untouched = %v", d, untouched)
	}
	if got := fs.Lookup("u").DefValue; got != "3s" {
		t.Errorf("default renders as %q", got)
	}
	for _, bad := range []string{"", "bogus", "3 parsecs"} {
		if err := fs.Parse([]string{"-d", bad}); err == nil {
			t.Errorf("-d %q accepted", bad)
		}
	}
}
