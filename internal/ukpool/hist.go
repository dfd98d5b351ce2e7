// Package ukpool is the warm-pool serving layer: it turns the paper's
// millisecond boot times into served traffic. A Pool keeps a set of
// pre-booted ("warm") unikernel instances of one spec, boots cold
// instances on demand when arrivals outrun the warm set, routes a
// request stream to instances over a deterministic virtual-time event
// loop, and autoscales the warm set from the observed arrival rate and
// tail latency — the LightVM/Firecracker serverless story on top of the
// Unikraft boot pipeline.
package ukpool

import (
	"fmt"
	"math/bits"
	"slices"
	"time"
)

// histSubBits sets the log-scale resolution: 8 sub-buckets per power of
// two, ~12% wide. A nanosecond duration maps to one of at most 488
// bucket indices (bucketOf(math.MaxInt64) = 487; negatives clamp to 0).
const histSubBits = 3

// Histogram is a log-bucketed latency histogram (HdrHistogram-style,
// integer-only so runs are bit-for-bit reproducible): ~12% relative
// resolution from 1ns to decades of virtual time, with O(1) record and
// O(span) percentile queries. It holds counters only for the span of
// buckets it has seen, so one type serves the run-long summaries and
// the thousands of narrow per-window ones in Report.Series alike.
//
// The representation is canonical — lo is the lowest occupied bucket,
// len(counts) reaches exactly to the highest, and a histogram that was
// never recorded into has nil counts — so histograms that saw the same
// observations, in any order and through any grouping of merges, are
// reflect.DeepEqual: the identity the sharded, cluster and engine
// equivalence tests compare reports by.
type Histogram struct {
	Count  uint64
	Sum    time.Duration
	MinV   time.Duration
	MaxV   time.Duration
	lo     int      // bucket index of counts[0]
	counts []uint32 // counts[i] is bucket lo+i
}

func bucketOf(v uint64) int {
	if v < 1<<histSubBits {
		return int(v)
	}
	k := uint(bits.Len64(v)) - 1
	sub := (v >> (k - histSubBits)) & (1<<histSubBits - 1)
	return int((k-histSubBits+1)<<histSubBits) + int(sub)
}

// bucketLow is the inverse of bucketOf: the smallest value mapping to
// bucket i.
func bucketLow(i int) uint64 {
	if i < 1<<histSubBits {
		return uint64(i)
	}
	k := uint(i>>histSubBits) + histSubBits - 1
	sub := uint64(i & (1<<histSubBits - 1))
	return 1<<k | sub<<(k-histSubBits)
}

// cover extends the span to hold buckets lo through hi. Callers occupy
// both ends before returning, which is what keeps the span canonical.
func (h *Histogram) cover(lo, hi int) {
	if len(h.counts) == 0 {
		h.lo = lo
	}
	old, front := len(h.counts), max(h.lo-lo, 0)
	n := front + max(old, hi-h.lo+1)
	h.counts = slices.Grow(h.counts, n-old)[:n]
	copy(h.counts[front:], h.counts[:old])
	clear(h.counts[:front])
	clear(h.counts[front+old:]) // capacity kept by Reset holds old counters
	h.lo -= front
}

// Record adds one observation.
func (h *Histogram) Record(d time.Duration) {
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
	b := bucketOf(uint64(d))
	if uint(b-h.lo) >= uint(len(h.counts)) {
		h.cover(b, b)
	}
	h.counts[b-h.lo]++
}

// Merge folds another histogram into h bucket-wise. Because buckets are
// integer counters, merging per-shard histograms yields bit-for-bit the
// same summary regardless of merge order grouping — the property
// ServeParallel's deterministic report relies on. h never shares o's
// array afterwards, also when h was empty: reports are copied by value.
func (h *Histogram) Merge(o *Histogram) {
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
	h.cover(o.lo, o.lo+len(o.counts)-1)
	into := h.counts[o.lo-h.lo:]
	for i, c := range o.counts {
		into[i] += c
	}
}

// Reset empties h and keeps its array, for a scratch histogram refilled
// every window. (A reset histogram is empty but not the zero value.)
func (h *Histogram) Reset() { *h = Histogram{counts: h.counts[:0]} }

// Mean reports the average observation, or 0 when empty.
func (h *Histogram) Mean() time.Duration {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / time.Duration(h.Count)
}

// Quantile reports the value at quantile q in [0, 1] (bucket lower
// bound, so within ~12% of exact). Quantile(0.5) is the median.
func (h *Histogram) Quantile(q float64) time.Duration {
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
			lo := time.Duration(bucketLow(h.lo + i))
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

// FractionBelow reports the fraction of observations at most d (bucket
// granularity, so within ~12% of exact). The overload experiment scores
// an uncontrolled run's in-deadline goodput with it: completions are
// only worth counting if they landed before the answer stopped
// mattering.
func (h *Histogram) FractionBelow(d time.Duration) float64 {
	if h.Count == 0 || d < 0 {
		return 0
	}
	if d >= h.MaxV {
		return 1
	}
	// d < MaxV, so d's bucket is inside the span or below it.
	var seen uint64
	for _, c := range h.counts[:max(bucketOf(uint64(d))-h.lo+1, 0)] {
		seen += uint64(c)
	}
	return float64(seen) / float64(h.Count)
}

// String renders the five-number summary used in reports.
func (h *Histogram) String() string {
	if h.Count == 0 {
		return "n=0"
	}
	return fmt.Sprintf("n=%d min=%v p50=%v p90=%v p99=%v max=%v",
		h.Count, h.MinV, h.Quantile(0.50), h.Quantile(0.90), h.Quantile(0.99), h.MaxV)
}
