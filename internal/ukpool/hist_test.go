package ukpool

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"
	"unsafe"

	"unikraft/internal/sim"
)

// TestHistogramMergeProperty: for arbitrary observation streams,
// arbitrary shard partitions and arbitrary merge groupings, merging the
// per-shard histograms is bit-for-bit identical to recording the whole
// stream sequentially. This is the property ServeParallel's and the
// cluster layer's deterministic shard/host report merges rely on, so it
// is exercised as a randomized property, not just one example: 50
// trials over mixed magnitudes (ns to minutes — many bucket octaves).
func TestHistogramMergeProperty(t *testing.T) {
	r := sim.NewRand(0x4157)
	for trial := 0; trial < 50; trial++ {
		nObs := 100 + r.Intn(2000)
		nShards := 1 + r.Intn(8)

		var whole Histogram
		shards := make([]Histogram, nShards)
		for i := 0; i < nObs; i++ {
			// Span ~9 decades so every bucket regime is hit, plus the
			// occasional extreme that lands near MaxV handling.
			var d time.Duration
			switch r.Intn(4) {
			case 0:
				d = time.Duration(r.Intn(1000)) // sub-µs
			case 1:
				d = time.Duration(r.Intn(1_000_000)) * time.Nanosecond
			case 2:
				d = time.Duration(r.Intn(5000)) * time.Microsecond
			default:
				d = time.Duration(r.Intn(90)) * time.Second
			}
			whole.Record(d)
			shards[r.Intn(nShards)].Record(d)
		}

		// Merge the shards in a random grouping: repeatedly fold a
		// random shard into another until one remains. Associativity +
		// commutativity over integer buckets is exactly what makes the
		// result independent of goroutine completion order.
		live := make([]*Histogram, nShards)
		for i := range shards {
			live[i] = &shards[i]
		}
		for len(live) > 1 {
			i := r.Intn(len(live))
			j := r.Intn(len(live) - 1)
			if j >= i {
				j++
			}
			live[i].Merge(live[j])
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		if !reflect.DeepEqual(&whole, live[0]) {
			t.Fatalf("trial %d (%d obs, %d shards): merged shards diverged from sequential\nwhole:  %v\nmerged: %v",
				trial, nObs, nShards, &whole, live[0])
		}
	}
}

// TestHistogramMergeExtremes: the merge property holds at the edges of
// the value range too — zero, negative (clamped to zero) and the
// largest representable durations.
func TestHistogramMergeExtremes(t *testing.T) {
	var whole, a, b Histogram
	for _, d := range []time.Duration{0, -time.Second, 1, time.Duration(1) << 62, time.Millisecond} {
		whole.Record(d)
	}
	a.Record(0)
	a.Record(1)
	a.Record(time.Millisecond)
	b.Record(-time.Second)
	b.Record(time.Duration(1) << 62)
	a.Merge(&b)
	if !reflect.DeepEqual(&whole, &a) {
		t.Errorf("extreme-value merge diverged: %v vs %v", &whole, &a)
	}
}

// TestHistogramMergeQuantiles: quantiles of a merged histogram match
// the sequential one across the whole quantile range (they must — the
// state is identical — but this pins the public read API, not just the
// internals DeepEqual sees).
func TestHistogramMergeQuantiles(t *testing.T) {
	r := sim.NewRand(0xc0ffee)
	var whole, a, b Histogram
	for i := 0; i < 5000; i++ {
		d := time.Duration(r.Intn(10_000_000)) * time.Nanosecond
		whole.Record(d)
		if r.Bool(0.3) {
			a.Record(d)
		} else {
			b.Record(d)
		}
	}
	a.Merge(&b)
	for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
		if got, want := a.Quantile(q), whole.Quantile(q); got != want {
			t.Errorf("q=%v: merged %v != sequential %v", q, got, want)
		}
	}
	if a.Mean() != whole.Mean() || a.Count != whole.Count {
		t.Errorf("merged summary diverged: mean %v/%v count %d/%d",
			a.Mean(), whole.Mean(), a.Count, whole.Count)
	}
}

// histBuckets is the whole bucket index space: 8 sub-buckets per power
// of two over 64-bit nanosecond values.
const histBuckets = 1 << (6 + histSubBits)

// denseHist is the reference: the fixed-array histogram Histogram was
// until it learned to hold only its occupied span. Every read is the
// old code verbatim; TestHistogramMatchesReference holds Histogram to
// it. (The old overflow counter is not carried: TestBucketRange shows
// no duration reaches it.)
type denseHist struct {
	Count  uint64
	Sum    time.Duration
	MinV   time.Duration
	MaxV   time.Duration
	counts [histBuckets]uint32
}

func (h *denseHist) Record(d time.Duration) {
	if d < 0 {
		d = 0
	}
	if h.Count == 0 || d < h.MinV {
		h.MinV = d
	}
	if d > h.MaxV {
		h.MaxV = d
	}
	h.Count++
	h.Sum += d
	h.counts[bucketOf(uint64(d))]++
}

func (h *denseHist) Merge(o *denseHist) {
	if o.Count == 0 {
		return
	}
	if h.Count == 0 || o.MinV < h.MinV {
		h.MinV = o.MinV
	}
	if o.MaxV > h.MaxV {
		h.MaxV = o.MaxV
	}
	h.Count += o.Count
	h.Sum += o.Sum
	for i, c := range o.counts {
		h.counts[i] += c
	}
}

func (h *denseHist) Mean() time.Duration {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / time.Duration(h.Count)
}

func (h *denseHist) Quantile(q float64) time.Duration {
	if h.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(h.Count-1))
	var seen uint64
	for i, c := range h.counts {
		seen += uint64(c)
		if seen > rank {
			lo := time.Duration(bucketLow(i))
			if lo < h.MinV {
				lo = h.MinV
			}
			if lo > h.MaxV {
				lo = h.MaxV
			}
			return lo
		}
	}
	return h.MaxV
}

func (h *denseHist) FractionBelow(d time.Duration) float64 {
	if h.Count == 0 {
		return 0
	}
	if d < 0 {
		return 0
	}
	if d >= h.MaxV {
		return 1
	}
	cut := bucketOf(uint64(d))
	var seen uint64
	for i := 0; i <= cut; i++ {
		seen += uint64(h.counts[i])
	}
	return float64(seen) / float64(h.Count)
}

func (h *denseHist) String() string {
	if h.Count == 0 {
		return "n=0"
	}
	return fmt.Sprintf("n=%d min=%v p50=%v p90=%v p99=%v max=%v",
		h.Count, h.MinV, h.Quantile(0.50), h.Quantile(0.90), h.Quantile(0.99), h.MaxV)
}

// TestBucketRange: every duration has a bucket inside the index space
// and bucketLow inverts bucketOf at each bucket's lower edge — why
// neither histogram needs a counter for observations beyond the last
// bucket.
func TestBucketRange(t *testing.T) {
	if top := bucketOf(math.MaxInt64); top != 487 || top >= histBuckets {
		t.Fatalf("bucketOf(MaxInt64) = %d, want 487 inside %d", top, histBuckets)
	}
	for i := 0; i <= bucketOf(math.MaxInt64); i++ {
		low := bucketLow(i)
		if bucketOf(low) != i || (low > 0 && bucketOf(low-1) != i-1) {
			t.Fatalf("bucket %d: low %d maps to %d, low-1 to %d", i, low, bucketOf(low), bucketOf(low-1))
		}
	}
}

// checkCanonical: the span starts at the lowest occupied bucket, ends at
// the highest, accounts for every observation, and is absent when empty.
func checkCanonical(t *testing.T, h *Histogram) {
	t.Helper()
	if h.Count == 0 {
		if h.counts != nil || h.lo != 0 {
			t.Fatalf("empty histogram holds lo=%d counts=%v", h.lo, h.counts)
		}
		return
	}
	if h.lo != bucketOf(uint64(h.MinV)) || h.lo+len(h.counts)-1 != bucketOf(uint64(h.MaxV)) {
		t.Fatalf("span [%d, %d], want [%d, %d] from min/max", h.lo, h.lo+len(h.counts)-1,
			bucketOf(uint64(h.MinV)), bucketOf(uint64(h.MaxV)))
	}
	var sum uint64
	for _, c := range h.counts {
		sum += uint64(c)
	}
	if h.counts[0] == 0 || h.counts[len(h.counts)-1] == 0 || sum != h.Count {
		t.Fatalf("span ends %d/%d, holds %d of %d observations", h.counts[0], h.counts[len(h.counts)-1], sum, h.Count)
	}
}

// checkReference requires every public read of h to equal the dense
// reference's, FractionBelow on both sides of every occupied bucket's
// edges included.
func checkReference(t *testing.T, h *Histogram, d *denseHist) {
	t.Helper()
	checkCanonical(t, h)
	if h.Count != d.Count || h.Sum != d.Sum || h.MinV != d.MinV || h.MaxV != d.MaxV || h.Mean() != d.Mean() {
		t.Fatalf("summary diverged: (n=%d sum=%v min=%v max=%v mean=%v), reference (n=%d sum=%v min=%v max=%v mean=%v)",
			h.Count, h.Sum, h.MinV, h.MaxV, h.Mean(), d.Count, d.Sum, d.MinV, d.MaxV, d.Mean())
	}
	if h.String() != d.String() {
		t.Fatalf("String = %q, reference %q", h.String(), d.String())
	}
	for _, q := range []float64{-1, 0, 0.25, 0.5, 0.9, 0.99, 0.999, 1, 2} {
		if hv, dv := h.Quantile(q), d.Quantile(q); hv != dv {
			t.Fatalf("Quantile(%v) = %v, reference %v", q, hv, dv)
		}
	}
	below := func(v time.Duration) {
		t.Helper()
		if hv, dv := h.FractionBelow(v), d.FractionBelow(v); hv != dv {
			t.Fatalf("FractionBelow(%d) = %v, reference %v", v, hv, dv)
		}
	}
	for i, c := range d.counts {
		if c == 0 {
			continue
		}
		for _, edge := range []uint64{bucketLow(i), min(bucketLow(i+1), math.MaxInt64)} {
			for _, v := range []time.Duration{time.Duration(edge) - 1, time.Duration(edge), time.Duration(edge + 1)} {
				below(v) // edge+1 past MaxInt64 wraps negative: also a case
			}
		}
	}
	for _, v := range []time.Duration{math.MinInt64, -1, h.MinV - 1, h.MaxV - 1, h.MaxV, h.MaxV + 1, math.MaxInt64} {
		below(v)
	}
}

// TestHistogramMatchesReference is the proof that licensed deleting the
// second histogram type, kept: the span-sized Histogram and the dense
// fixed-array form see identical streams — log-uniform over every bit
// width, duplicates, zero, negatives, 1<<62 — and must agree on every
// read at every checkpoint and after order-shuffled merges, with the
// representation canonical throughout.
func TestHistogramMatchesReference(t *testing.T) {
	// Every bit width: no shift can exceed MaxInt64 (a negative
	// Duration, clamped like the one in twenty negated below), a shift
	// of 64 or 65 is zero, long shifts repeat small values.
	draw := func(rng *sim.Rand) time.Duration {
		v := time.Duration(rng.Uint64() >> rng.Intn(66))
		if rng.Bool(0.05) {
			v = -v
		}
		return v
	}

	t.Run("empty", func(t *testing.T) {
		var h, e Histogram
		checkReference(t, &h, &denseHist{})
		h.Merge(&e)
		checkReference(t, &h, &denseHist{})
	})

	t.Run("stream", func(t *testing.T) {
		rng := sim.NewRand(7)
		var h Histogram
		var d denseHist
		for i := 0; i < 20_000; i++ {
			v := draw(rng)
			if i == 10_000 {
				v = 1 << 62
			}
			h.Record(v)
			d.Record(v)
			if i%997 == 0 {
				checkReference(t, &h, &d)
			}
		}
		checkReference(t, &h, &d)
	})

	t.Run("merge-order-independent", func(t *testing.T) {
		rng := sim.NewRand(11)
		const parts = 8
		span := make([]Histogram, parts+1) // the last part stays empty
		dense := make([]denseHist, parts+1)
		for i := 0; i < 10_000; i++ {
			p, v := rng.Intn(parts), draw(rng)
			if i%3 == 0 {
				v = time.Duration(rng.Uint64() >> (20 + rng.Intn(30))) // a narrow band per part
			}
			span[p].Record(v)
			dense[p].Record(v)
		}
		var fwd Histogram
		var ref denseHist
		for p := range span {
			fwd.Merge(&span[p])
			ref.Merge(&dense[p])
			checkReference(t, &fwd, &ref)
		}
		for trial := 0; trial < 20; trial++ {
			var got Histogram
			for _, p := range rng.Perm(len(span)) {
				got.Merge(&span[p])
			}
			if !reflect.DeepEqual(&got, &fwd) {
				t.Fatalf("trial %d: merge order changed the histogram: %v vs %v", trial, &got, &fwd)
			}
		}
	})
}

// TestHistogramMergeCopies: a merge into an empty histogram takes a
// copy of the source's counters, never its array — Report values are
// copied and merged freely, and a source recorded into afterwards must
// not show through.
func TestHistogramMergeCopies(t *testing.T) {
	var src, dst Histogram
	for _, d := range []time.Duration{time.Microsecond, time.Millisecond, time.Millisecond} {
		src.Record(d)
	}
	dst.Merge(&src)
	want := dst
	want.counts = append([]uint32(nil), dst.counts...)
	src.Record(time.Millisecond)
	src.Record(time.Nanosecond)
	if !reflect.DeepEqual(&dst, &want) {
		t.Fatalf("merged histogram changed with its source: %v, was %v", dst.counts, want.counts)
	}
}

// TestHistogramCost: a report costs what it holds, not a bucket array
// per histogram; recording into the span allocates nothing, and neither
// does refilling a Reset histogram over the span it had.
func TestHistogramCost(t *testing.T) {
	if sz := unsafe.Sizeof(Report{}); sz > 512 {
		t.Errorf("unsafe.Sizeof(Report{}) = %d, want <= 512", sz)
	}
	var h Histogram
	h.Record(time.Microsecond)
	h.Record(time.Second)
	if n := testing.AllocsPerRun(1000, func() { h.Record(time.Millisecond) }); n != 0 {
		t.Errorf("Record into a spanned bucket: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		h.Reset()
		h.Record(time.Second)
		h.Record(time.Microsecond)
	}); n != 0 {
		t.Errorf("Reset and refill: %v allocs, want 0", n)
	}
	var fresh Histogram
	fresh.Record(time.Second)
	fresh.Record(time.Microsecond)
	if !reflect.DeepEqual(&h, &fresh) {
		t.Errorf("a refilled Reset histogram differs from a fresh one: %v vs %v", &h, &fresh)
	}
}
