// Package rng provides a small deterministic pseudo-random number generator
// used by workload generators and property tests.
//
// The generator is splitmix64 (Steele, Lea, Flood 2014). It is used instead
// of math/rand so that workload data is bit-identical across Go releases:
// every experiment in this repository is seeded and reproducible.
package rng

// Source is a splitmix64 generator. The zero value is a valid generator
// seeded with 0; use New to seed explicitly.
type Source struct {
	state uint64
}

// New returns a Source seeded with seed.
func New(seed uint64) *Source {
	return &Source{state: seed}
}

// Uint64 returns the next 64-bit value in the sequence.
func (s *Source) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a value in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	return int(s.Uint64() % uint64(n))
}

// Int64n returns a value in [0, n). It panics if n <= 0.
func (s *Source) Int64n(n int64) int64 {
	if n <= 0 {
		panic("rng: Int64n called with n <= 0")
	}
	return int64(s.Uint64() % uint64(n))
}

// Bits returns a value with the low n bits pseudo-random and the rest
// zero. n outside [0, 64) returns a full random word.
func (s *Source) Bits(n int) uint64 {
	v := s.Uint64()
	if n < 0 || n >= 64 {
		return v
	}
	return v & ((1 << n) - 1)
}

// Bool returns a pseudo-random boolean.
func (s *Source) Bool() bool {
	return s.Uint64()&1 == 1
}

// Float64 returns a value in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Chance returns true with probability p (clamped to [0,1]).
func (s *Source) Chance(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// Perm returns a pseudo-random permutation of [0, n).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Fill fills dst with pseudo-random int64 values in [0, bound) when
// bound > 0, or with unrestricted values when bound == 0.
func (s *Source) Fill(dst []int64, bound int64) {
	for i := range dst {
		if bound > 0 {
			dst[i] = s.Int64n(bound)
		} else {
			dst[i] = int64(s.Uint64())
		}
	}
}
