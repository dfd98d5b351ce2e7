package sim

import "math"

// Rand is a small deterministic pseudo-random source (SplitMix64 seeding
// an xorshift128+ generator). Experiments must be reproducible run to
// run, so nothing in the tree uses math/rand's global state.
type Rand struct {
	s0, s1 uint64
}

// NewRand returns a generator seeded from seed via SplitMix64.
func NewRand(seed uint64) *Rand {
	r := &Rand{}
	r.Seed(seed)
	return r
}

// mix64Gamma is SplitMix64's stream increment.
const mix64Gamma = 0x9E3779B97F4A7C15

// Mix64 is one SplitMix64 step — advance x by the stream increment,
// then run the finalizer — the tree's one cheap, well-mixed,
// deterministic 64-bit hash: generator seeding, fault and admission
// draws, the cluster's hash ring and NIC RSS steering all call it,
// domain-separated by what they mix in.
func Mix64(x uint64) uint64 {
	x += mix64Gamma
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// Seed resets the generator state from seed.
func (r *Rand) Seed(seed uint64) {
	// Two consecutive SplitMix64 outputs expand the seed into two
	// non-zero words.
	r.s0, r.s1 = Mix64(seed), Mix64(seed+mix64Gamma)
	if r.s0 == 0 && r.s1 == 0 {
		r.s0 = 1
	}
}

// Uint64 returns the next 64 random bits (xorshift128+).
func (r *Rand) Uint64() uint64 {
	x, y := r.s0, r.s1
	r.s0 = y
	x ^= x << 23
	x ^= x >> 17
	x ^= y ^ (y >> 26)
	r.s1 = x
	return x + y
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Perm returns a random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
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

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool { return r.Float64() < p }

// ExpFloat64 returns an exponentially distributed value with rate 1
// (mean 1), by inversion. Traffic generators divide by their arrival
// rate to draw Poisson inter-arrival gaps.
func (r *Rand) ExpFloat64() float64 {
	// 1-Float64() is in (0, 1], so the log is finite.
	return -math.Log(1 - r.Float64())
}
