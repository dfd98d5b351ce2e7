package ukpool

import (
	"math"
	"time"

	"unikraft/internal/sim"
)

// Request is one unit of offered load: when it arrives on the pool's
// virtual timeline and how many payload bytes the instance copies in
// and back out while serving it.
type Request struct {
	Arrival time.Duration
	Bytes   int
	// Key identifies the session/flow the request belongs to (0 means
	// anonymous). The pool ignores it; the cluster front door hashes it
	// for consistent-hash session affinity.
	Key uint64
	// Origin, when non-zero, is the request's original arrival at the
	// cluster front door; end-to-end latency is then measured from it
	// instead of Arrival. The cluster router sets Arrival to the moment
	// the request reaches the chosen host (post routing + link) and
	// keeps the client-side timestamp here, so host queueing and the
	// routing delay both land in the latency histogram. Zero means
	// Arrival is the origin (plain single-host serving).
	Origin time.Duration
	// Attempt is the request's retry ordinal (0 = first try). The fault
	// machinery bumps it on every crash-triggered retry, and it feeds
	// the deterministic VM crash draw so a retried request flips a
	// fresh coin instead of crashing forever.
	Attempt int
	// Deadline, when non-zero, is the absolute virtual time past which
	// the answer stops mattering. The cluster front door and the pool's
	// queue both drop a request whose deadline already passed — before
	// any service time is charged — and count it Expired. Zero means no
	// deadline (every pre-overload-control trace).
	Deadline time.Duration
	// Class is the request's priority class. Staged admission sheds
	// ClassBatch traffic before it touches interactive (zero) traffic.
	Class int
}

// Start is the instant req's latency and default deadline run from:
// its front-door Origin when the cluster router stamped one, its
// Arrival otherwise.
func (req Request) Start() time.Duration {
	if req.Origin != 0 {
		return req.Origin
	}
	return req.Arrival
}

// ClassBatch is the priority class staged admission sheds first. Class
// zero is interactive on purpose: anonymous legacy traffic is the last
// thing the admission controller sacrifices.
const ClassBatch = 1

// Workload is a stream of requests in non-decreasing arrival order.
// Generators are pull-based iterators so traces of millions of requests
// never materialize in memory.
type Workload interface {
	// Next returns the next request, or ok=false when the trace ends.
	Next() (req Request, ok bool)
}

// Arrivals is the one open-loop arrival process behind every trace
// shape: exponential inter-arrival gaps at a rate that may vary with
// virtual time (the shape), then — when the trace carries priority
// classes — a class draw with its per-class deadline, then — when it
// carries sessions — a session key. The constructors below differ only
// in the rate curve and the decorations they turn on.
type Arrivals struct {
	rnd   *sim.Rand
	rate  func(t time.Duration) float64 // arrivals per second at t
	bytes int
	n, i  int
	now   time.Duration
	// classes turns on the class draw; mix is the interactive share.
	classes          bool
	mix              float64
	dlInt, dlBatch   time.Duration
	sessions         int
	surgeAt, surgeTo time.Duration
	surge            float64
}

// newArrivals is n requests of size bytes at rate, anonymous and all
// interactive until a constructor or method turns a decoration on.
func newArrivals(seed uint64, n, bytes int, rate func(time.Duration) float64) *Arrivals {
	return &Arrivals{rnd: sim.NewRand(seed), rate: rate, bytes: bytes, n: n, mix: 1}
}

// NewPoisson returns n requests of size bytes arriving at a fixed rate
// requests/second, deterministically derived from seed — the standard
// model for aggregate request traffic from many independent users.
func NewPoisson(seed uint64, rate float64, n, bytes int) *Arrivals {
	if rate <= 0 {
		rate = 1
	}
	return newArrivals(seed, n, bytes, func(time.Duration) float64 { return rate })
}

// NewBursty returns n requests of size bytes from an on/off modulated
// Poisson process: within each period the first duty fraction (in
// (0, 1)) runs at burstRate, the remainder at baseRate. Bursts are what
// exercise cold boots and the autoscaler — steady Poisson traffic
// barely leaves the warm set.
func NewBursty(seed uint64, baseRate, burstRate float64, period time.Duration, duty float64, n, bytes int) *Arrivals {
	if baseRate <= 0 {
		baseRate = 1
	}
	if burstRate < baseRate {
		burstRate = baseRate
	}
	if period <= 0 {
		period = time.Second
	}
	if duty <= 0 || duty >= 1 {
		duty = 0.1
	}
	on := time.Duration(duty * float64(period))
	return newArrivals(seed, n, bytes, func(t time.Duration) float64 {
		if t%period < on {
			return burstRate
		}
		return baseRate
	})
}

// NewDiurnal returns the cluster-scale trace shape: n requests of size
// bytes whose arrival rate swings sinusoidally between baseRate
// (trough, at t=0) and peakRate (crest) per period, jumping to
// flashRate inside [flashAt, flashAt+flashDur) regardless of the phase
// (a link going viral mid-afternoon), with session keys drawn uniformly
// from a population of sessions so consistent-hash affinity has
// identities to stick to; all derived from seed. flashDur <= 0
// disables the flash crowd; sessions <= 0 leaves requests anonymous.
func NewDiurnal(seed uint64, baseRate, peakRate float64, period time.Duration,
	flashAt, flashDur time.Duration, flashRate float64, sessions, n, bytes int) *Arrivals {
	if baseRate <= 0 {
		baseRate = 1
	}
	if peakRate < baseRate {
		peakRate = baseRate
	}
	if period <= 0 {
		period = time.Second
	}
	if flashRate < peakRate {
		flashRate = peakRate
	}
	flashEnd := flashAt + flashDur
	a := newArrivals(seed, n, bytes, func(t time.Duration) float64 {
		if flashEnd > flashAt && t >= flashAt && t < flashEnd {
			return flashRate
		}
		phase := 2 * math.Pi * float64(t%period) / float64(period)
		// (1-cos)/2 swings 0→1→0 across the period. The product is
		// rounded on its own so no platform fuses it into the add.
		return baseRate + float64((peakRate-baseRate)*(1-math.Cos(phase))/2)
	})
	return a.Sessions(sessions)
}

// NewOverload returns the open-loop overload trace: n requests of size
// bytes arriving Poisson at a fixed rate — typically a multiple of the
// serving capacity — that keeps offering load no matter how far the
// system falls behind (no client backpressure, the regime where FIFO
// queues collapse), derived from seed. Every request draws a priority
// class; by default the whole trace is interactive and carries no
// deadlines. Chain Mix, Deadlines, Sessions and Surge to shape it.
func NewOverload(seed uint64, rate float64, n, bytes int) *Arrivals {
	a := NewPoisson(seed, rate, n, bytes)
	a.classes = true
	return a
}

// Mix sets the interactive share of the trace; the remainder is batch.
// It turns the class draw on.
func (a *Arrivals) Mix(interactiveShare float64) *Arrivals {
	a.classes, a.mix = true, min(max(interactiveShare, 0), 1)
	return a
}

// Deadlines sets the per-class relative deadlines (0 leaves the class
// deadline-free); each request's absolute deadline is its arrival plus
// its class's allowance. It turns the class draw on.
func (a *Arrivals) Deadlines(interactive, batch time.Duration) *Arrivals {
	a.classes, a.dlInt, a.dlBatch = true, interactive, batch
	return a
}

// Sessions draws request keys from a population of n sessions (<= 0
// leaves requests anonymous).
func (a *Arrivals) Sessions(n int) *Arrivals {
	a.sessions = n
	return a
}

// Surge multiplies the arrival rate by factor inside [at, at+dur) —
// the flash-crowd spike on top of the trace's own shape. A later call
// replaces the window.
func (a *Arrivals) Surge(at, dur time.Duration, factor float64) *Arrivals {
	a.surgeAt, a.surgeTo, a.surge = at, at+dur, max(factor, 1)
	return a
}

// Next implements Workload.
func (a *Arrivals) Next() (Request, bool) {
	if a.i >= a.n {
		return Request{}, false
	}
	a.i++
	rate := a.rate(a.now)
	if a.surge > 1 && a.now >= a.surgeAt && a.now < a.surgeTo {
		rate *= a.surge
	}
	a.now += time.Duration(a.rnd.ExpFloat64() / rate * float64(time.Second))
	req := Request{Arrival: a.now, Bytes: a.bytes}
	if a.classes {
		if a.rnd.Float64() >= a.mix {
			req.Class = ClassBatch
			if a.dlBatch > 0 {
				req.Deadline = a.now + a.dlBatch
			}
		} else if a.dlInt > 0 {
			req.Deadline = a.now + a.dlInt
		}
	}
	if a.sessions > 0 {
		req.Key = a.rnd.Uint64()%uint64(a.sessions) + 1
	}
	return req, true
}

// Trace replays a fixed request slice — unit tests script exact arrival
// patterns with it.
type Trace struct {
	reqs []Request
	i    int
}

// NewTrace wraps reqs (which must already be sorted by arrival).
func NewTrace(reqs []Request) *Trace { return &Trace{reqs: reqs} }

// Next implements Workload.
func (t *Trace) Next() (Request, bool) {
	if t.i >= len(t.reqs) {
		return Request{}, false
	}
	r := t.reqs[t.i]
	t.i++
	return r, true
}
