package sim

import (
	"math"

	"spinngo/internal/snap"
)

// RNG is a small, fast, deterministic pseudo-random generator
// (xoshiro256** seeded via SplitMix64). It is not safe for concurrent
// use; each simulated component that needs private randomness should
// Fork its own stream.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded from seed via SplitMix64, which
// guarantees a well-mixed internal state even for small seeds.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	next := func() uint64 {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := range r.s {
		r.s[i] = next()
	}
	return r
}

// Fork derives an independent stream from this one, for handing to a
// sub-component without sharing state.
func (r *RNG) Fork() *RNG { return NewRNG(r.Uint64()) }

// Snap codes the generator's internal state for snapshots; a decoded
// generator resumes the stream exactly where the snapshotted one left
// off.
func (r *RNG) Snap(c *snap.Codec) {
	for i := range r.s {
		c.U64(&r.s[i])
	}
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// step is one xoshiro256** step on a state held in locals: it returns
// the output and the new state.
func step(s0, s1, s2, s3 uint64) (x, n0, n1, n2, n3 uint64) {
	x = rotl(s1*5, 7) * 9
	t := s1 << 17
	s2 ^= s0
	s3 ^= s1
	s1 ^= s2
	s0 ^= s3
	s2 ^= t
	return x, s0, s1, s2, rotl(s3, 45)
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	x, s0, s1, s2, s3 := step(r.s[0], r.s[1], r.s[2], r.s[3])
	r.s = [4]uint64{s0, s1, s2, s3}
	return x
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool { return r.Float64() < p }

// EachBool makes n Bernoulli trials of probability p, the same draws as
// n calls of Bool(p) leaving the same state, and calls hit(j) for each
// trial j that succeeds.
func (r *RNG) EachBool(n int, p float64, hit func(j int)) {
	t := boolThreshold(p)
	for j := r.nextHit(0, n, t); j < n; j = r.nextHit(j+1, n, t) {
		hit(j)
	}
}

// boolThreshold is the integer form of Bool's test: Float64() < p is
// exactly x>>11 < boolThreshold(p), since Float64 is x>>11 scaled by
// 2^-53 and scaling p by 2^53 is exact.
func boolThreshold(p float64) uint64 {
	switch {
	case p >= 1:
		return 1 << 53
	case p > 0:
		return uint64(math.Ceil(p * (1 << 53)))
	default: // p <= 0 or NaN: no draw succeeds
		return 0
	}
}

// nextHit runs trials j..n-1 against threshold t with the state in
// locals, and returns the first that succeeds, or n.
func (r *RNG) nextHit(j, n int, t uint64) int {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	for ; j < n; j++ {
		var x uint64
		x, s0, s1, s2, s3 = step(s0, s1, s2, s3)
		if x>>11 < t {
			break
		}
	}
	r.s = [4]uint64{s0, s1, s2, s3}
	return j
}

// Exp returns an exponentially distributed value with the given rate
// (mean 1/rate). Used for Poisson event streams.
func (r *RNG) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("sim: Exp with non-positive rate")
	}
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -math.Log(u) / rate
}

// Perm returns a random permutation of [0, n) (Fisher-Yates).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	r.PermInto(p)
	return p
}

// PermInto fills p with a random permutation of [0, len(p)), making the
// draws Perm(len(p)) makes.
func (r *RNG) PermInto(p []int) {
	for i := range p {
		p[i] = i
	}
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}
