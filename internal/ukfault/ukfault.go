// Package ukfault describes deterministic fault plans for the serving
// stack: fail-stop host crashes (with optional rejoin), degraded or
// partitioned front-door↔host links, and a per-request VM crash hazard.
//
// A plan is data, not behavior: the cluster router and the pool engine
// read it and derive every fault decision from the plan's seed and the
// identity of the thing failing (host id, request fields, attempt
// number) via splitmix64 hashing — never from Go's runtime randomness
// or wall-clock time. The same seed and the same plan over the same
// trace therefore produce byte-identical reports, which is what makes
// chaos runs regression-gateable: a failover bug shows up as a diff,
// not as flakiness.
package ukfault

import (
	"fmt"
	"time"

	"unikraft/internal/sim"
)

// HostCrash fail-stops one host at virtual time At: everything in
// flight on the host (in service, queued, waiting on boots) is lost,
// and forwards that arrive at it after At are lost until the router's
// probe machinery detects the crash, however soon it rejoins. If Rejoin > 0 the host comes back
// at At+Rejoin, or at the detection if that is later, as a cold standby
// (its previous fleet is gone; the autoscaler re-activates it via a
// fresh snapshot handoff when load warrants).
type HostCrash struct {
	Host   int
	At     time.Duration
	Rejoin time.Duration // measured from At; 0 = the host never returns
}

// Window is the virtual-time span [From, To) a fault covers; To <= From
// means "until the trace ends". Covers is the one test of it.
type Window struct{ From, To time.Duration }

func (w Window) Covers(t time.Duration) bool { return t >= w.From && (w.To <= w.From || t < w.To) }

// LinkFault degrades one host's front-door↔host link (every host's
// when Host = -1) during its Window: ExtraDelay is added to every
// forward's link latency, Loss drops each forward independently with
// that probability, and Partition drops every forward (detection and
// retries then behave exactly as for a crash, but the host's in-flight
// work survives and it serves again once the window closes).
type LinkFault struct {
	Host int
	Window
	ExtraDelay time.Duration
	Loss       float64
	Partition  bool
}

// SlowHost degrades one host's service rate by Factor during its
// Window — a noisy neighbor, thermal throttling, a dying disk: the host
// still answers, just Factor times slower. The pool stretches every
// service started in the window by Factor; the cluster router inflates
// its fluid estimate of work forwarded there by the same factor, so
// least-loaded steers around the sick host and admission sees the
// backlog it causes. A slow host is the overload controller's natural
// prey: sustained queue-delay pressure without any crash.
type SlowHost struct {
	Host int
	Window
	Factor float64
}

// VMFaults is the pool-level hazard: each request drawn against the
// plan seed crashes its serving instance mid-request with probability
// Hazard. The partial service burned before the crash is charged, the
// instance is restarted in its slot (a fork clone when the pool has a
// snapshot template), and the request is retried on another instance.
type VMFaults struct {
	Hazard float64
}

// Plan is one seeded fault schedule. The zero value (or nil) is the
// perfect world every existing test assumes; Empty reports whether a
// plan is equivalent to it.
type Plan struct {
	Seed    uint64
	Crashes []HostCrash
	Links   []LinkFault
	Slows   []SlowHost
	VM      VMFaults
}

// New returns an empty plan with the given seed.
func New(seed uint64) *Plan { return &Plan{Seed: seed} }

// CrashHost schedules a fail-stop crash of host at virtual time at.
func (p *Plan) CrashHost(host int, at time.Duration) *Plan {
	p.Crashes = append(p.Crashes, HostCrash{Host: host, At: at})
	return p
}

// CrashHostRejoin schedules a crash at at with the host returning as a
// cold standby rejoin after the crash.
func (p *Plan) CrashHostRejoin(host int, at, rejoin time.Duration) *Plan {
	p.Crashes = append(p.Crashes, HostCrash{Host: host, At: at, Rejoin: rejoin})
	return p
}

// DegradeLink adds delay and loss to host's link during [from, to).
func (p *Plan) DegradeLink(host int, from, to, extraDelay time.Duration, loss float64) *Plan {
	p.Links = append(p.Links, LinkFault{Host: host, Window: Window{from, to}, ExtraDelay: extraDelay, Loss: loss})
	return p
}

// PartitionHost cuts host off from the front door during [from, to).
func (p *Plan) PartitionHost(host int, from, to time.Duration) *Plan {
	p.Links = append(p.Links, LinkFault{Host: host, Window: Window{from, to}, Partition: true})
	return p
}

// Slow degrades host's service rate by factor during [from, to).
func (p *Plan) Slow(host int, from, to time.Duration, factor float64) *Plan {
	p.Slows = append(p.Slows, SlowHost{Host: host, Window: Window{from, to}, Factor: factor})
	return p
}

// WithVMHazard sets the per-request instance crash probability.
func (p *Plan) WithVMHazard(hazard float64) *Plan {
	p.VM.Hazard = hazard
	return p
}

// ClusterFaults reports whether the plan carries faults the cluster
// router must arm its probe/retry machinery for (crashes, link faults
// or slow hosts — a pure VM hazard is handled inside each host's
// pool).
func (p *Plan) ClusterFaults() bool {
	return p != nil && (len(p.Crashes) > 0 || len(p.Links) > 0 || len(p.Slows) > 0)
}

// Validate rejects plans the engines cannot execute deterministically.
func (p *Plan) Validate(hosts int) error {
	if p == nil {
		return nil
	}
	seen := make(map[int]bool, len(p.Crashes))
	for _, c := range p.Crashes {
		if c.Host < 0 || c.Host >= hosts {
			return fmt.Errorf("ukfault: crash host %d out of range [0,%d)", c.Host, hosts)
		}
		if seen[c.Host] {
			return fmt.Errorf("ukfault: host %d crashes more than once", c.Host)
		}
		seen[c.Host] = true
		if c.At < 0 || c.Rejoin < 0 {
			return fmt.Errorf("ukfault: negative crash time on host %d", c.Host)
		}
	}
	for i, l := range p.Links {
		if l.Host < -1 || l.Host >= hosts {
			return fmt.Errorf("ukfault: link fault %d host %d out of range", i, l.Host)
		}
		if l.Loss < 0 || l.Loss > 1 {
			return fmt.Errorf("ukfault: link fault %d loss %v outside [0,1]", i, l.Loss)
		}
		if l.ExtraDelay < 0 {
			return fmt.Errorf("ukfault: link fault %d negative delay", i)
		}
	}
	slowed := make(map[int]bool, len(p.Slows))
	for _, s := range p.Slows {
		if s.Host < 0 || s.Host >= hosts {
			return fmt.Errorf("ukfault: slow host %d out of range [0,%d)", s.Host, hosts)
		}
		if slowed[s.Host] {
			return fmt.Errorf("ukfault: host %d slowed more than once", s.Host)
		}
		slowed[s.Host] = true
		if s.Factor < 1 {
			return fmt.Errorf("ukfault: slow host %d factor %v below 1", s.Host, s.Factor)
		}
		if s.From < 0 {
			return fmt.Errorf("ukfault: negative slow window on host %d", s.Host)
		}
	}
	if p.VM.Hazard < 0 || p.VM.Hazard > 1 {
		return fmt.Errorf("ukfault: vm hazard %v outside [0,1]", p.VM.Hazard)
	}
	return nil
}

// CrashOf returns host's scheduled crash, if any. Validate guarantees
// at most one per host.
func (p *Plan) CrashOf(host int) (HostCrash, bool) {
	if p == nil {
		return HostCrash{}, false
	}
	for _, c := range p.Crashes {
		if c.Host == host {
			return c, true
		}
	}
	return HostCrash{}, false
}

// SlowOf returns host's scheduled slowdown, if any. Validate guarantees
// at most one per host.
func (p *Plan) SlowOf(host int) (SlowHost, bool) {
	if p == nil {
		return SlowHost{}, false
	}
	for _, s := range p.Slows {
		if s.Host == host {
			return s, true
		}
	}
	return SlowHost{}, false
}

// SlowAt returns host's service-time multiplier at time t (1 when the
// host is running at full speed).
func (p *Plan) SlowAt(host int, t time.Duration) float64 {
	if s, ok := p.SlowOf(host); ok && s.Covers(t) {
		return s.Factor
	}
	return 1
}

// Mix folds any number of identity words into one hash, each through
// sim.Mix64 — the avalanche step every fault draw goes through. Draws
// are domain-separated by what goes in: a request's crash draw mixes
// the plan seed with the request's own fields, a link-loss draw mixes
// the seed with the host and the forward's dispatch time, and so on.
func Mix(seed uint64, parts ...uint64) uint64 {
	h := sim.Mix64(seed)
	for _, v := range parts {
		h = sim.Mix64(h ^ v)
	}
	return h
}

// Frac maps a hash to a uniform float64 in [0, 1) — the Bernoulli
// coin every probabilistic fault flips.
func Frac(h uint64) float64 {
	return float64(h>>11) / float64(1<<53)
}

// Draw decides whether a request crashes its instance mid-service and,
// if so, at what fraction of the service time the crash lands (clamped
// to [0.05, 0.95] so a crash is never free and never indistinguishable
// from a completion). Identity is the request's own fields plus the
// retry attempt, never dispatch ordinals: the draw is invariant under
// the pool's shard partitioning, preserving the shards=1 ≡ sequential
// equivalence for fault-free requests and determinism for faulty ones.
func (v VMFaults) Draw(seed uint64, arrival time.Duration, bytes int, key uint64, attempt int) (crash bool, frac float64) {
	if v.Hazard <= 0 {
		return false, 0
	}
	h := Mix(seed, uint64(arrival), uint64(bytes), key, uint64(attempt))
	if Frac(h) >= v.Hazard {
		return false, 0
	}
	return true, 0.05 + float64(0.9*Frac(sim.Mix64(h))) // no fused multiply-add
}
