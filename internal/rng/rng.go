// Package rng provides a small, fast, deterministic random number generator
// and the distributions the simulator needs (uniform on [0, 1), exponential,
// Weibull, normal, and random permutations).
//
// The simulator must be bit-for-bit reproducible from a seed, independent of
// Go version, so we implement xoshiro256** seeded via splitmix64 rather than
// depending on math/rand's unspecified stream. Streams can be split so that
// independent subsystems (failure injection, checkpoint offsets, workload
// jitter) draw from decorrelated generators.
package rng

import (
	"errors"
	"math"
)

// Source is a deterministic xoshiro256** generator. The zero value is not
// usable; construct with New.
type Source struct {
	s [4]uint64
}

// splitmix64 advances the given state and returns the next output. It is the
// recommended seeder for xoshiro.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Source seeded deterministically from seed.
func New(seed uint64) *Source {
	var r Source
	sm := seed
	for i := range r.s {
		r.s[i] = splitmix64(&sm)
	}
	// xoshiro requires a nonzero state; splitmix64 of any seed produces one
	// with overwhelming probability, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return &r
}

// Split returns a new Source whose stream is decorrelated from r but fully
// determined by r's current state and the label. Use distinct labels for
// distinct subsystems.
func (r *Source) Split(label uint64) *Source {
	return New(r.Uint64() ^ (label * 0x9e3779b97f4a7c15))
}

// Derive returns a seed for an independent stream keyed by root and the
// label path, equivalent to chaining New(root).Split(l0).Split(l1)... and
// drawing one value. Sweep harnesses use it to give each point of a
// parallel sweep its own decorrelated stream that depends only on the
// point's identity — never on which worker ran it or in what order — so
// results are bit-for-bit reproducible at any parallelism.
func Derive(root uint64, labels ...uint64) uint64 {
	s := New(root)
	for _, l := range labels {
		s = s.Split(l)
	}
	return s.Uint64()
}

// State returns the generator's current internal state, for serialization.
// FromState(r.State()) continues the stream exactly where r left off.
func (r *Source) State() [4]uint64 { return r.s }

// FromState reconstructs a Source from a state captured with State. The
// all-zero state is invalid for xoshiro (the stream would be constant zero)
// and can only arise from corrupted input, so it is rejected.
func FromState(s [4]uint64) (*Source, error) {
	if s[0]|s[1]|s[2]|s[3] == 0 {
		return nil, errors.New("rng: all-zero state")
	}
	return &Source{s: s}, nil
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits.
func (r *Source) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method, bias-free.
	un := uint64(n)
	for {
		x := r.Uint64()
		hi, lo := mul128(x, un)
		if lo >= un || lo >= (-un)%un {
			return int(hi)
		}
	}
}

// mul128 returns the 128-bit product of a and b as (hi, lo).
func mul128(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	a0, a1 := a&mask32, a>>32
	b0, b1 := b&mask32, b>>32
	t := a1*b0 + (a0*b0)>>32
	lo = a * b
	hi = a1*b1 + t>>32 + (t&mask32+a0*b1)>>32
	return hi, lo
}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Float64Open returns a uniform float64 in (0, 1), never exactly zero.
// Useful as input to inverse-CDF transforms involving log.
func (r *Source) Float64Open() float64 {
	for {
		v := r.Float64()
		if v > 0 {
			return v
		}
	}
}

// Exp returns an exponentially distributed value with the given mean
// (mean = 1/rate). It panics if mean <= 0.
func (r *Source) Exp(mean float64) float64 {
	if mean <= 0 {
		panic("rng: Exp with non-positive mean")
	}
	return -mean * math.Log(r.Float64Open())
}

// Weibull returns a Weibull-distributed value with the given scale (lambda)
// and shape (k). shape < 1 models infant mortality (decreasing hazard),
// shape = 1 reduces to the exponential, shape > 1 models wear-out.
func (r *Source) Weibull(scale, shape float64) float64 {
	if scale <= 0 || shape <= 0 {
		panic("rng: Weibull with non-positive parameter")
	}
	return scale * math.Pow(-math.Log(r.Float64Open()), 1/shape)
}

// NormalBound bounds the standard deviate Normal draws: its smallest
// uniform input is 2^-53, so |z| <= sqrt(-2 ln 2^-53) ≈ 8.5717. A draw is
// never farther than NormalBound·stddev from the mean.
const NormalBound = 8.58

// Normal returns a normally distributed value with the given mean and
// standard deviation, via the Box-Muller transform (polar discarded branch
// omitted deliberately: one trig call keeps the consumption of the stream
// fixed at two draws per call, which simplifies reproducibility reasoning).
func (r *Source) Normal(mean, stddev float64) float64 {
	u1 := r.Float64Open()
	u2 := r.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + stddev*z
}

// TruncNormal returns a normal draw truncated to be >= lo by resampling.
func (r *Source) TruncNormal(mean, stddev, lo float64) float64 {
	for i := 0; i < 1000; i++ {
		v := r.Normal(mean, stddev)
		if v >= lo {
			return v
		}
	}
	return lo
}

// Perm returns a random permutation of [0, n) (Fisher-Yates).
func (r *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
