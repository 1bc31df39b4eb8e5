package numeric

import "math"

// RNG is a small, fast, deterministic pseudo-random number generator based on
// SplitMix64 (Steele, Lea & Flood, OOPSLA 2014). It is used instead of
// math/rand so that experiment outputs are reproducible byte-for-byte across
// Go releases and platforms: the generator's output sequence is fully
// specified by its 64-bit seed.
//
// An RNG value is stateful and must not be shared between goroutines without
// external synchronization; seed one per goroutine with NewRNG.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. Distinct seeds give streams
// that are statistically independent for the purposes of this repository.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Uint64 returns the next 64 bits from the stream.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniformly distributed value in the half-open interval
// [0, 1). It uses the top 53 bits of Uint64, the standard construction for a
// full-precision float64 uniform variate.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Uniform returns a uniformly distributed value in [lo, hi). It panics if
// hi < lo. The width hi−lo must be representable as a float64.
func (r *RNG) Uniform(lo, hi float64) float64 {
	if hi < lo {
		panic("numeric: Uniform called with hi < lo")
	}
	return lo + (hi-lo)*r.Float64()
}

// UniformOpen returns a uniformly distributed value in the open interval
// (lo, hi): it rejects exact endpoint draws, which matters for parameters
// such as the CP popularity α ∈ (0, 1] where a zero would create a degenerate
// content provider.
func (r *RNG) UniformOpen(lo, hi float64) float64 {
	for {
		x := r.Uniform(lo, hi)
		if x != lo { //pubopt:allow(floatcmp): open-interval rejection sampling must reject the exact endpoint draw only
			return x
		}
	}
}

// Intn returns a uniformly distributed int in [0, n). It panics if n <= 0.
// Modulo bias is removed by rejection sampling.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("numeric: Intn called with n <= 0")
	}
	max := uint64(n)
	// Largest multiple of n that fits in a uint64; values at or above it are
	// rejected so the remainder is unbiased.
	limit := math.MaxUint64 - math.MaxUint64%max
	for {
		v := r.Uint64()
		if v < limit {
			return int(v % max)
		}
	}
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	return r.Float64() < p
}

// Perm returns a uniformly random permutation of [0, n) using Fisher–Yates.
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.ShuffleInts(p)
	return p
}

// ShuffleInts permutes p in place uniformly at random.
func (r *RNG) ShuffleInts(p []int) {
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// Exp returns an exponentially distributed value with rate lambda (mean
// 1/lambda). It panics if lambda <= 0.
func (r *RNG) Exp(lambda float64) float64 {
	if lambda <= 0 {
		panic("numeric: Exp called with lambda <= 0")
	}
	// Inverse-CDF sampling; 1-Float64() avoids log(0).
	return -math.Log(1-r.Float64()) / lambda
}
