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
	// ClassBatch traffic before it touches ClassInteractive.
	Class int
}

// Priority classes. Zero is interactive on purpose: anonymous legacy
// traffic is the last thing the admission controller sacrifices.
const (
	ClassInteractive = 0
	ClassBatch       = 1
)

// Workload is a stream of requests in non-decreasing arrival order.
// Generators are pull-based iterators so traces of millions of requests
// never materialize in memory.
type Workload interface {
	// Next returns the next request, or ok=false when the trace ends.
	Next() (req Request, ok bool)
}

// Poisson is an open-loop Poisson arrival process: exponential
// inter-arrival gaps at a fixed mean rate, the standard model for
// aggregate request traffic from many independent users.
type Poisson struct {
	rnd   *sim.Rand
	rate  float64 // arrivals per second
	bytes int
	n     int
	i     int
	now   time.Duration
}

// NewPoisson returns n requests of size bytes arriving at rate
// requests/second, deterministically derived from seed.
func NewPoisson(seed uint64, rate float64, n, bytes int) *Poisson {
	if rate <= 0 {
		rate = 1
	}
	return &Poisson{rnd: sim.NewRand(seed), rate: rate, bytes: bytes, n: n}
}

// Next implements Workload.
func (p *Poisson) Next() (Request, bool) {
	if p.i >= p.n {
		return Request{}, false
	}
	p.i++
	gap := p.rnd.ExpFloat64() / p.rate * float64(time.Second)
	p.now += time.Duration(gap)
	return Request{Arrival: p.now, Bytes: p.bytes}, true
}

// Bursty is an on/off modulated Poisson process: within each period the
// first duty fraction runs at burstRate, the remainder at baseRate.
// Bursts are what exercise cold boots and the autoscaler — steady
// Poisson traffic barely leaves the warm set.
type Bursty struct {
	rnd                 *sim.Rand
	baseRate, burstRate float64
	period              time.Duration
	duty                float64
	bytes               int
	n                   int
	i                   int
	now                 time.Duration
}

// NewBursty returns n requests of size bytes with the given on/off
// rates, period and burst duty cycle in (0, 1), derived from seed.
func NewBursty(seed uint64, baseRate, burstRate float64, period time.Duration, duty float64, n, bytes int) *Bursty {
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
	return &Bursty{
		rnd: sim.NewRand(seed), baseRate: baseRate, burstRate: burstRate,
		period: period, duty: duty, bytes: bytes, n: n,
	}
}

// Next implements Workload.
func (b *Bursty) Next() (Request, bool) {
	if b.i >= b.n {
		return Request{}, false
	}
	b.i++
	rate := b.baseRate
	if b.now%b.period < time.Duration(b.duty*float64(b.period)) {
		rate = b.burstRate
	}
	gap := b.rnd.ExpFloat64() / rate * float64(time.Second)
	b.now += time.Duration(gap)
	return Request{Arrival: b.now, Bytes: b.bytes}, true
}

// Diurnal is the cluster-scale trace shape: a Poisson process whose
// rate follows a sinusoidal day/night curve between baseRate (trough)
// and peakRate (crest) over each period, with an optional flash crowd —
// a window during which the rate jumps to flashRate regardless of the
// diurnal phase (a link going viral mid-afternoon). Every request
// carries a session key drawn uniformly from a fixed session
// population, so consistent-hash affinity has identities to stick to.
type Diurnal struct {
	rnd                *sim.Rand
	baseRate, peakRate float64
	period             time.Duration
	flashAt, flashEnd  time.Duration
	flashRate          float64
	sessions           int
	bytes              int
	n, i               int
	now                time.Duration
}

// NewDiurnal returns n requests of size bytes whose arrival rate swings
// sinusoidally between baseRate and peakRate per period, spiking to
// flashRate inside [flashAt, flashAt+flashDur), with session keys drawn
// from a population of sessions, all derived from seed. flashDur <= 0
// disables the flash crowd; sessions <= 0 leaves requests anonymous.
func NewDiurnal(seed uint64, baseRate, peakRate float64, period time.Duration,
	flashAt, flashDur time.Duration, flashRate float64, sessions, n, bytes int) *Diurnal {
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
	return &Diurnal{
		rnd: sim.NewRand(seed), baseRate: baseRate, peakRate: peakRate,
		period: period, flashAt: flashAt, flashEnd: flashAt + flashDur,
		flashRate: flashRate, sessions: sessions, bytes: bytes, n: n,
	}
}

// rate evaluates the modulated arrival rate at virtual time t.
func (d *Diurnal) rate(t time.Duration) float64 {
	if d.flashEnd > d.flashAt && t >= d.flashAt && t < d.flashEnd {
		return d.flashRate
	}
	phase := 2 * math.Pi * float64(t%d.period) / float64(d.period)
	// (1-cos)/2 swings 0→1→0 across the period: trough at t=0.
	return d.baseRate + (d.peakRate-d.baseRate)*(1-math.Cos(phase))/2
}

// Next implements Workload.
func (d *Diurnal) Next() (Request, bool) {
	if d.i >= d.n {
		return Request{}, false
	}
	d.i++
	gap := d.rnd.ExpFloat64() / d.rate(d.now) * float64(time.Second)
	d.now += time.Duration(gap)
	req := Request{Arrival: d.now, Bytes: d.bytes}
	if d.sessions > 0 {
		req.Key = d.rnd.Uint64()%uint64(d.sessions) + 1
	}
	return req, true
}

// Overload is the open-loop overload trace: a Poisson arrival process
// pinned at a fixed rate — typically a multiple of the serving
// capacity — that keeps offering load no matter how far the system
// falls behind (no client backpressure, the regime where FIFO queues
// collapse). Each request carries a priority class drawn from a fixed
// mix and a per-class relative deadline stamped at generation time, so
// the end-to-end deadline travels from the workload through the front
// door into the pool queue.
type Overload struct {
	rnd      *sim.Rand
	rate     float64
	bytes    int
	n, i     int
	now      time.Duration
	mix      float64 // interactive share of the trace, in [0, 1]
	dlInt    time.Duration
	dlBatch  time.Duration
	sessions int
	surgeAt  time.Duration
	surgeEnd time.Duration
	surge    float64
}

// NewOverload returns n requests of size bytes arriving open-loop at
// rate requests/second, derived from seed. By default the whole trace
// is interactive and carries no deadlines; chain Mix, Deadlines,
// Sessions and Surge to shape it.
func NewOverload(seed uint64, rate float64, n, bytes int) *Overload {
	if rate <= 0 {
		rate = 1
	}
	return &Overload{rnd: sim.NewRand(seed), rate: rate, bytes: bytes, n: n, mix: 1}
}

// Mix sets the interactive share of the trace; the remainder is batch.
func (o *Overload) Mix(interactiveShare float64) *Overload {
	if interactiveShare < 0 {
		interactiveShare = 0
	}
	if interactiveShare > 1 {
		interactiveShare = 1
	}
	o.mix = interactiveShare
	return o
}

// Deadlines sets the per-class relative deadlines (0 leaves the class
// deadline-free); each request's absolute deadline is its arrival plus
// its class's allowance.
func (o *Overload) Deadlines(interactive, batch time.Duration) *Overload {
	o.dlInt, o.dlBatch = interactive, batch
	return o
}

// Sessions draws request keys from a population of n sessions (<= 0
// leaves requests anonymous).
func (o *Overload) Sessions(n int) *Overload {
	o.sessions = n
	return o
}

// Surge multiplies the arrival rate by factor inside [at, at+dur) —
// the flash-crowd spike on top of the sustained overload.
func (o *Overload) Surge(at, dur time.Duration, factor float64) *Overload {
	if factor < 1 {
		factor = 1
	}
	o.surgeAt, o.surgeEnd, o.surge = at, at+dur, factor
	return o
}

// Next implements Workload.
func (o *Overload) Next() (Request, bool) {
	if o.i >= o.n {
		return Request{}, false
	}
	o.i++
	rate := o.rate
	if o.surge > 1 && o.now >= o.surgeAt && o.now < o.surgeEnd {
		rate *= o.surge
	}
	gap := o.rnd.ExpFloat64() / rate * float64(time.Second)
	o.now += time.Duration(gap)
	req := Request{Arrival: o.now, Bytes: o.bytes}
	if o.rnd.Float64() >= o.mix {
		req.Class = ClassBatch
		if o.dlBatch > 0 {
			req.Deadline = o.now + o.dlBatch
		}
	} else if o.dlInt > 0 {
		req.Deadline = o.now + o.dlInt
	}
	if o.sessions > 0 {
		req.Key = o.rnd.Uint64()%uint64(o.sessions) + 1
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
