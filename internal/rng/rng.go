// Package rng provides a small, fast, deterministic pseudo-random number
// generator for trace generation and simulation.
//
// Trace generators must be reproducible across runs and Go versions so that
// experiment outputs are stable; math/rand's default source is seedable but
// slower and its stream is not guaranteed stable across releases for all
// helpers. We use splitmix64 for seeding and xoshiro256** for the stream,
// both with published reference outputs.
package rng

import (
	"math"
	"math/bits"
)

// Rand is a deterministic xoshiro256** generator. The zero value is not
// usable; construct with New.
type Rand struct {
	s state
}

// state is the generator's 256 bits. It is four scalars, not an array, so a
// copy held in a local across a loop stays in registers.
type state struct{ s0, s1, s2, s3 uint64 }

// next returns the state one xoshiro256** step on and this step's output.
func (s state) next() (state, uint64) {
	out := bits.RotateLeft64(s.s1*5, 7) * 9
	t := s.s1 << 17
	s.s2 ^= s.s0
	s.s3 ^= s.s1
	s.s1 ^= s.s2
	s.s0 ^= s.s3
	s.s2 ^= t
	s.s3 = bits.RotateLeft64(s.s3, 45)
	return s, out
}

// New returns a generator seeded from seed via splitmix64, as recommended by
// the xoshiro authors. Two generators with the same seed produce identical
// streams.
func New(seed uint64) *Rand {
	var r Rand
	sm := seed
	sm, r.s.s0 = splitmix64(sm)
	sm, r.s.s1 = splitmix64(sm)
	sm, r.s.s2 = splitmix64(sm)
	_, r.s.s3 = splitmix64(sm)
	return &r
}

// splitmix64 advances the splitmix64 state and returns (newState, output).
func splitmix64(state uint64) (uint64, uint64) {
	state += 0x9e3779b97f4a7c15
	z := state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return state, z ^ (z >> 31)
}

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	var v uint64
	r.s, v = r.s.next()
	return v
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method, bias-free.
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 1<<32 - 1
	a0, a1 := a&mask, a>>32
	b0, b1 := b&mask, b>>32
	w0 := a0 * b0
	t := a1*b0 + w0>>32
	w1 := t&mask + a0*b1
	hi = a1*b1 + t>>32 + w1>>32
	lo = a * b
	return
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Threshold returns the integer form of probability p: for every draw v,
// float64(v>>11)/2⁵³ < p — Float64() < p — holds exactly when v>>11 <
// Threshold(p). The division by 2⁵³ is exact, so the float test is k < p·2⁵³
// over the integer k = v>>11, which is k < ⌈p·2⁵³⌉. A p of 0 or less (or NaN)
// gives 0, never true; a p of 1 or more gives 2⁵³, always true.
func Threshold(p float64) uint64 {
	switch {
	case !(p > 0):
		return 0
	case p >= 1:
		return 1 << 53
	}
	return uint64(math.Ceil(p * (1 << 53)))
}

// Below reports whether the next draw's top 53 bits are below t: Bool with
// its Threshold computed once by the caller.
func (r *Rand) Below(t uint64) bool { return r.Uint64()>>11 < t }

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool { return r.Below(Threshold(p)) }

// Geometric returns a sample from a geometric distribution with success
// probability p (mean 1/p - 1, support {0,1,2,...}). Used for run lengths in
// trace generation. p must be in (0, 1].
//
// It is a Bernoulli loop — one draw per trial, as Bool(p) — and every pinned
// trace depends on that: a sampler that draws differently changes the
// streams. The loop keeps the generator state in locals.
func (r *Rand) Geometric(p float64) int {
	if p >= 1 {
		return 0
	}
	if p <= 0 {
		panic("rng: Geometric with non-positive p")
	}
	t := Threshold(p)
	s := r.s
	n := 0
	for {
		var v uint64
		s, v = s.next()
		if v>>11 < t {
			break
		}
		n++
		if n > 1<<24 { // defensive bound; p is configuration
			break
		}
	}
	r.s = s
	return n
}

// Perm fills out with a random permutation of [0, len(out)).
func (r *Rand) Perm(out []int) {
	for i := range out {
		out[i] = i
	}
	for i := len(out) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
}

// Zipf samples from a bounded zipf-like distribution over [0, n) with
// exponent s > 0 using inverse-CDF on a precomputed table. For hot/cold page
// popularity in synthetic traces. Construct once per distribution.
type Zipf struct {
	cdf []float64
}

// NewZipf builds a Zipf sampler over n items with exponent s.
func NewZipf(n int, s float64) *Zipf {
	if n <= 0 {
		panic("rng: NewZipf with non-positive n")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Zipf{cdf: cdf}
}

// Sample draws an index in [0, n) with zipf weights.
func (z *Zipf) Sample(r *Rand) int {
	u := r.Float64()
	// Binary search for the first cdf entry >= u.
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
