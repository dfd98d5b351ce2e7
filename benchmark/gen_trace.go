package main

import (
	"math"
	"time"

	"unikraft"
)

// arrivalTrace is a materialised open-loop schedule: every request's
// arrival instant on the virtual timeline is fixed before the serve
// starts, so the generator cannot run late (late_us is 0 by
// construction) and a slow system faces the same arrivals as a fast
// one.
type arrivalTrace struct {
	reqs []unikraft.Request
	// span is the nominal length of the schedule; points on it (a flash
	// crowd's start, a crash instant) are fractions of it.
	span time.Duration
}

// last is the final arrival instant.
func (t *arrivalTrace) last() time.Duration { return t.reqs[len(t.reqs)-1].Arrival }

// compressed returns the same requests offered `factor` times faster:
// every arrival instant divided by factor. Sizes, keys and order are
// untouched, so the max-rate search varies nothing but the rate.
func (t *arrivalTrace) compressed(factor float64) *arrivalTrace {
	out := &arrivalTrace{reqs: make([]unikraft.Request, len(t.reqs)),
		span: time.Duration(float64(t.span) / factor)}
	for i, q := range t.reqs {
		q.Arrival = time.Duration(float64(q.Arrival) / factor)
		out.reqs[i] = q
	}
	return out
}

// rateTrace draws n arrivals of a Poisson process whose rate is
// rate(t), with seeded payload sizes and, when sessions > 0, session
// keys.
func rateTrace(r *rng, n int, span time.Duration, sessions int, rate func(t time.Duration) float64, digest *fnv64) *arrivalTrace {
	t := &arrivalTrace{reqs: make([]unikraft.Request, 0, n), span: span}
	now := time.Duration(0)
	for i := 0; i < n; i++ {
		now += time.Duration(r.exp() / rate(now) * float64(time.Second))
		q := unikraft.Request{Arrival: now, Bytes: r.between(128, 1024)}
		if sessions > 0 {
			q.Key = uint64(r.intn(sessions)) + 1
		}
		digest.u64(uint64(q.Arrival))
		digest.u64(uint64(q.Bytes)<<32 | q.Key)
		t.reqs = append(t.reqs, q)
	}
	return t
}

// burstyTrace is an on/off process: the first duty fraction of every
// period arrives at burst req/s, the rest at base req/s.
func burstyTrace(seed uint64, n int, base, burst float64, period time.Duration, duty float64, digest *fnv64) *arrivalTrace {
	on := time.Duration(duty * float64(period))
	mean := duty*burst + (1-duty)*base
	span := time.Duration(float64(n) / mean * float64(time.Second))
	return rateTrace(newRNG(seed, "trace.bursty"), n, span, 0, func(t time.Duration) float64 {
		if t%period < on {
			return burst
		}
		return base
	}, digest)
}

// diurnalTrace swings sinusoidally between base and peak req/s, days
// times over the trace, and every day has a flash crowd of flash req/s
// over [flashAt, flashAt+flashLen) of it (fractions of a day). Session
// keys come from a fixed population.
func diurnalTrace(seed uint64, n, days int, base, peak, flash float64, flashAt, flashLen float64, sessions int, digest *fnv64) *arrivalTrace {
	// Size the span so that the n requests fill the days.
	mean := (base+peak)/2*(1-flashLen) + flash*flashLen
	span := time.Duration(float64(n) / mean * float64(time.Second))
	day := span / time.Duration(days)
	from := time.Duration(flashAt * float64(day))
	to := from + time.Duration(flashLen*float64(day))
	return rateTrace(newRNG(seed, "trace.diurnal"), n, span, sessions, func(t time.Duration) float64 {
		t %= day
		if t >= from && t < to {
			return flash
		}
		phase := 2 * math.Pi * float64(t) / float64(day)
		return base + (peak-base)*(1-math.Cos(phase))/2
	}, digest)
}
