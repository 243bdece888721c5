// Package rng provides small, fast, deterministic pseudo-random number
// generators used throughout the simulator.
//
// Simulations must be exactly reproducible from a single seed, and the
// different components (ORAM remapping, bucket permutation, workload
// generation, ...) must draw from independent streams so that adding a draw
// in one component does not perturb another. The package therefore exposes
// a forkable generator: Fork derives an independent child stream from a
// parent deterministically.
//
// The core generator is xoshiro256**, seeded through SplitMix64, which is
// the initialization recommended by the xoshiro authors. Neither algorithm
// is cryptographic; the protocol-level randomness that matters for ORAM
// security would be a hardware TRNG/DRBG in a real controller, and the
// simulator only needs statistical quality plus reproducibility.
package rng

import (
	"math"
	"math/bits"
)

// Source is a deterministic xoshiro256** generator. It is not safe for
// concurrent use; fork one Source per goroutine or component instead.
type Source struct {
	s [4]uint64
}

// splitMix64 advances a SplitMix64 state and returns the next output.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Source seeded from seed via SplitMix64.
func New(seed uint64) *Source {
	src := &Source{}
	src.Seed(seed)
	return src
}

// Seed resets src to the state New(seed) starts from, so a hot path can
// reseed a Source it owns instead of allocating a fresh one.
func (src *Source) Seed(seed uint64) {
	state := seed
	for i := range src.s {
		src.s[i] = splitMix64(&state)
	}
	// xoshiro256** must not start from the all-zero state. SplitMix64 can
	// only emit four zeros in a row for astronomically unlikely seeds, but
	// guard anyway so the zero-value seed is safe by construction.
	if src.s[0]|src.s[1]|src.s[2]|src.s[3] == 0 {
		src.s[0] = 0x9e3779b97f4a7c15
	}
}

// Uint64 returns the next 64 pseudo-random bits.
func (src *Source) Uint64() uint64 {
	s0, s1, s2, s3 := src.s[0], src.s[1], src.s[2], src.s[3]
	result := bits.RotateLeft64(s1*5, 7) * 9
	t := s1 << 17
	s2 ^= s0
	s3 ^= s1
	s1 ^= s2
	s0 ^= s3
	s2 ^= t
	src.s = [4]uint64{s0, s1, s2, bits.RotateLeft64(s3, 45)}
	return result
}

// State exports the generator's internal state for checkpointing.
func (src *Source) State() [4]uint64 { return src.s }

// Restore rebuilds a Source from a State() snapshot.
func Restore(state [4]uint64) *Source {
	if state[0]|state[1]|state[2]|state[3] == 0 {
		state[0] = 0x9e3779b97f4a7c15
	}
	return &Source{s: state}
}

// Fork derives an independent child generator. The child's state is a pure
// function of the parent's current state, and forking advances the parent,
// so successive forks yield distinct streams.
func (src *Source) Fork() *Source {
	state := src.Uint64() ^ 0xd2b74407b1ce6e93
	child := &Source{}
	for i := range child.s {
		child.s[i] = splitMix64(&state)
	}
	return child
}

// Uint64n returns a uniform value in [0, n). It panics if n == 0.
// Uses Lemire's multiply-shift rejection method for unbiased results.
func (src *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with n == 0")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return src.Uint64() & (n - 1)
	}
	hi, lo := bits.Mul64(src.Uint64(), n)
	if lo < n {
		threshold := (-n) % n
		for lo < threshold {
			hi, lo = bits.Mul64(src.Uint64(), n)
		}
	}
	return hi
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (src *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with n <= 0")
	}
	return int(src.Uint64n(uint64(n)))
}

// Int63 returns a uniform non-negative int64.
func (src *Source) Int63() int64 {
	return int64(src.Uint64() >> 1)
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (src *Source) Float64() float64 {
	return float64(src.Uint64()>>11) / (1 << 53)
}

// Bool returns a uniformly random boolean.
func (src *Source) Bool() bool {
	return src.Uint64()&1 == 1
}

// Perm returns a uniformly random permutation of [0, n) as a slice,
// generated with the Fisher-Yates shuffle.
func (src *Source) Perm(n int) []int {
	return src.PermInto(make([]int, n))
}

// PermInto fills p with a uniformly random permutation of [0, len(p))
// and returns it. It consumes exactly the same draws as Perm, so for a
// given source state both produce the identical permutation; PermInto
// exists for hot paths that reuse one scratch slice across calls.
func (src *Source) PermInto(p []int) []int {
	for i := range p {
		p[i] = i
	}
	// Inline Fisher-Yates (same draw order as Shuffle) so the hot path
	// carries no closure.
	for i := len(p) - 1; i > 0; i-- {
		j := src.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle pseudo-randomizes the order of n elements using swap.
func (src *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := src.Intn(i + 1)
		swap(i, j)
	}
}

// Exp returns an exponentially distributed value with mean 1, suitable for
// inter-arrival gaps. Derived by inversion from Float64.
func (src *Source) Exp() float64 {
	// 1 - Float64() is in (0, 1], avoiding log(0).
	return -math.Log(1 - src.Float64())
}
