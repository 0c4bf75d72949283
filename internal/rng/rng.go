// Package rng provides deterministic pseudo-random number streams and the
// distributions used by the platform models (I/O jitter, interference,
// compute noise).
//
// Every stochastic input of an experiment flows from a named Stream derived
// from the experiment's root seed, so that tables produced by the harness
// are reproducible bit-for-bit regardless of goroutine scheduling.
//
// The generator is PCG-XSH-RR 64/32 (O'Neill, 2014), implemented from
// scratch: it is tiny, fast, and each (seed, stream) pair selects an
// independent sequence.
package rng

import (
	"fmt"
	"hash/fnv"
	"math"
)

// Stream is a deterministic random number stream. It is not safe for
// concurrent use; derive one stream per logical entity instead of sharing.
type Stream struct {
	state, inc uint64
	seed       uint64 // construction seed, retained for Named/Child derivation
	// spare holds a cached second output of the polar normal transform.
	spare    float64
	hasSpare bool
}

// New returns a stream for the given seed and stream identifier; distinct
// identifiers select independent sequences for one seed. It inlines, so a
// caller that copies the stream out (*r.Child(id)) allocates nothing.
func New(seed, stream uint64) *Stream {
	s := new(Stream)
	s.start(seed, stream)
	return s
}

func (s *Stream) start(seed, stream uint64) {
	*s = Stream{inc: stream<<1 | 1, seed: seed}
	s.Uint32()
	s.state += seed
	s.Uint32()
}

// Named derives a child stream from s identified by name. The derivation
// depends only on the parent's initial identity and the name, not on how
// many values the parent has produced, so call it before drawing from s
// whenever layout stability matters.
func (s *Stream) Named(name string) *Stream {
	h := fnv.New64a()
	h.Write([]byte(name))
	return New(h.Sum64()^(s.seed*0x9e3779b97f4a7c15+0x2545f4914f6cdd1d), s.inc>>1)
}

// Child derives a child stream from s using a numeric identifier, e.g. a
// node or rank index.
func (s *Stream) Child(id uint64) *Stream {
	return New(s.seed^(id*0x9e3779b97f4a7c15+0xd1b54a32d192ed03), id)
}

// Uint32 returns the next 32 uniformly distributed bits.
func (s *Stream) Uint32() uint32 {
	old := s.state
	s.state = old*6364136223846793005 + s.inc
	xorshifted := uint32(((old >> 18) ^ old) >> 27)
	rot := uint32(old >> 59)
	return xorshifted>>rot | xorshifted<<((-rot)&31)
}

// Uint64 returns the next 64 uniformly distributed bits.
func (s *Stream) Uint64() uint64 { return uint64(s.Uint32())<<32 | uint64(s.Uint32()) }

// Float64 returns a uniform value in [0, 1).
func (s *Stream) Float64() float64 { return float64(s.Uint64()>>11) / (1 << 53) }

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with non-positive n")
	}
	// Rejection above limit, the largest multiple of n not exceeding
	// 2^64-1, keeps the stream portable. limit is at least 2^64-n, so a
	// draw below that (-max) is accepted without the division limit
	// costs: one division per call, not two.
	max := uint64(n)
	for {
		v := s.Uint64()
		if v < -max || v < math.MaxUint64-math.MaxUint64%max {
			return int(v % max)
		}
	}
}

// Perm returns a random permutation of [0, n).
func (s *Stream) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], i
	}
	return p
}

// Sample returns a uniformly random ordered k-subset of [0, n): the first
// k slots of a Fisher–Yates shuffle of the identity, in exactly k Intn
// draws. The array is virtual: swaps logs the (slot, value) pairs earlier
// swaps wrote (the last pair of a slot wins), so no cost grows with n.
func (s *Stream) Sample(n, k int) []int {
	if k < 0 || k > n {
		panic(fmt.Sprintf("rng: Sample(%d, %d)", n, k))
	}
	p, swaps := make([]int, k), []int(nil)
	for i := range p {
		j := i + s.Intn(n-i)
		vi, vj := i, j
		for l := 0; l < len(swaps); l += 2 {
			if swaps[l] == i {
				vi = swaps[l+1]
			}
			if swaps[l] == j {
				vj = swaps[l+1]
			}
		}
		if p[i] = vj; j != i && i+1 < k {
			swaps = append(swaps, j, vi)
		}
	}
	return p
}

// Exponential returns a draw from the exponential distribution with the
// given mean.
func (s *Stream) Exponential(mean float64) float64 {
	u := s.Float64()
	for u == 0 {
		u = s.Float64()
	}
	return -mean * math.Log(u)
}

// Normal returns a draw from the normal distribution N(mu, sigma²) using
// the Marsaglia polar method.
func (s *Stream) Normal(mu, sigma float64) float64 {
	if s.hasSpare {
		s.hasSpare = false
		return mu + sigma*s.spare
	}
	for {
		u := 2*s.Float64() - 1
		v := 2*s.Float64() - 1
		q := u*u + v*v
		if q == 0 || q >= 1 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(q) / q)
		s.spare = v * f
		s.hasSpare = true
		return mu + sigma*u*f
	}
}

// LogNormal returns a draw from the log-normal distribution whose
// underlying normal has parameters (mu, sigma).
func (s *Stream) LogNormal(mu, sigma float64) float64 {
	return math.Exp(s.Normal(mu, sigma))
}

// UnitLogNormal returns a multiplicative jitter factor with mean 1 and the
// given shape sigma: LogNormal(-sigma²/2, sigma). Larger sigma gives a
// heavier right tail while keeping E[X] = 1.
func (s *Stream) UnitLogNormal(sigma float64) float64 {
	return s.LogNormal(-sigma*sigma/2, sigma)
}

// Pareto returns a draw from the Pareto distribution with scale xm > 0 and
// shape alpha > 0. Small alpha (≈1) produces very heavy tails.
func (s *Stream) Pareto(xm, alpha float64) float64 {
	u := s.Float64()
	for u == 0 {
		u = s.Float64()
	}
	return xm / math.Pow(u, 1/alpha)
}
