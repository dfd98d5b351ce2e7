package main

import (
	"math"
	"sort"
)

// rng is the benchmark's own generator (SplitMix64 seeding
// xorshift128+). Load generation must not depend on any generator in
// the program under test: a later change to sim.Rand would otherwise
// change the offered traffic and with it every number printed here.
type rng struct{ s0, s1 uint64 }

func splitmix(x *uint64) uint64 {
	*x += 0x9E3779B97F4A7C15
	z := *x
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// newRNG derives an independent stream from the run seed and a stream
// label, so adding a stream never shifts the draws of another.
func newRNG(seed uint64, stream string) *rng {
	x := seed
	for _, c := range []byte(stream) {
		x = x*0x100000001B3 ^ uint64(c)
	}
	r := &rng{s0: splitmix(&x), s1: splitmix(&x)}
	if r.s0 == 0 && r.s1 == 0 {
		r.s0 = 1
	}
	return r
}

func (r *rng) u64() uint64 {
	x, y := r.s0, r.s1
	r.s0 = y
	x ^= x << 23
	x ^= x >> 17
	x ^= y ^ (y >> 26)
	r.s1 = x
	return x + y
}

func (r *rng) intn(n int) int         { return int(r.u64() % uint64(n)) }
func (r *rng) float() float64         { return float64(r.u64()>>11) / (1 << 53) }
func (r *rng) exp() float64           { return -math.Log(1 - r.float()) }
func (r *rng) between(lo, hi int) int { return lo + r.intn(hi-lo+1) }

// zipf draws ranks in [0, n) with P(k) ∝ 1/(k+1)^s by inversion over a
// precomputed cumulative table.
type zipf struct{ cum []float64 }

func newZipf(n int, s float64) *zipf {
	cum := make([]float64, n)
	sum := 0.0
	for k := range cum {
		sum += 1 / math.Pow(float64(k+1), s)
		cum[k] = sum
	}
	for k := range cum {
		cum[k] /= sum
	}
	return &zipf{cum: cum}
}

// deal returns n ranks in seeded order in which every rank appears in
// proportion to its probability (largest remainders make up the
// rounding), not by n independent draws. Where ranks differ a
// hundredfold in cost — a 64 KB file against a 612 B one — independent
// draws make the work of a run depend on how many expensive ones it
// happened to get; dealing keeps the mix and leaves the order to the
// seed.
func (z *zipf) deal(r *rng, n int) []int {
	type rem struct {
		rank int
		frac float64
	}
	out := make([]int, 0, n)
	rems := make([]rem, len(z.cum))
	prev := 0.0
	for k, c := range z.cum {
		want := (c - prev) * float64(n)
		prev = c
		whole := int(want)
		rems[k] = rem{k, want - float64(whole)}
		for i := 0; i < whole; i++ {
			out = append(out, k)
		}
	}
	sort.SliceStable(rems, func(i, j int) bool { return rems[i].frac > rems[j].frac })
	for i := 0; len(out) < n; i++ {
		out = append(out, rems[i%len(rems)].rank)
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}

func (z *zipf) draw(r *rng) int {
	k := sort.SearchFloat64s(z.cum, r.float())
	if k >= len(z.cum) {
		k = len(z.cum) - 1
	}
	return k
}

// fnv64 is the running FNV-1a digest of the generated request stream:
// two commits that print the same digest were offered identical load.
type fnv64 uint64

const fnvOffset fnv64 = 0xcbf29ce484222325

func (h *fnv64) u64(v uint64) {
	x := uint64(*h)
	for i := 0; i < 8; i++ {
		x = (x ^ (v & 0xff)) * 0x100000001B3
		v >>= 8
	}
	*h = fnv64(x)
}

func (h *fnv64) bytes(b []byte) {
	x := uint64(*h)
	for _, c := range b {
		x = (x ^ uint64(c)) * 0x100000001B3
	}
	*h = fnv64(x)
}
