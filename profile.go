package unikraft

import (
	"sort"
	"sync"
)

// Option profiles: composable configuration units. A profile bundles
// the options that only make sense together — the zero-copy datapath
// plus its batching knobs, or the SMP core/queue pairing — into one
// named Option, so call sites say what they want ("the fast path",
// "8 cores") instead of re-deriving five flag settings. Profiles are
// plain Options: they compose with each other and with individual
// options, later settings winning as always, and a spec built from a
// profile is indistinguishable from one built from the expanded options
// (the parity tests assert exact equality).

// WithProfile groups options into one: applying the group is identical
// to applying its members in order. Use it to define project-local
// profiles:
//
//	tuned := unikraft.WithProfile(
//		unikraft.WithZeroCopy(),
//		unikraft.WithTxBatch(32),
//	)
//	spec := unikraft.NewSpec("nginx", tuned)
func WithProfile(opts ...Option) Option {
	return func(s *Spec) {
		for _, opt := range opts {
			opt(s)
		}
	}
}

// ProfileFastPath is the throughput-tuned serving configuration: the
// zero-copy datapath with batched TX kicks, plus snapshot-fork
// instantiation over staged init tables. It collapses the WithZeroCopy +
// WithTxBatch(32) + WithSnapshotBoot + WithInitStages stanza that every
// tuned benchmark had grown.
func ProfileFastPath() Option {
	return WithProfile(
		WithZeroCopy(),
		WithTxBatch(32),
		WithSnapshotBoot(),
		WithInitStages(),
	)
}

// ProfileSMP configures an n-core guest with matched networking: n
// vCPUs and one RX/TX queue pair per core (capped at the virtio-net
// maximum of 8 queues), so every core polls its own queue.
func ProfileSMP(n int) Option {
	queues := n
	if queues > MaxNetQueues {
		queues = MaxNetQueues
	}
	return WithProfile(
		WithVCPUs(n),
		WithNetQueues(queues),
	)
}

// profileRegistry maps names to option groups for Profile(name).
var (
	profileMu  sync.RWMutex
	profileReg = map[string]Option{
		"fastpath": ProfileFastPath(),
		"smp":      ProfileSMP(8),
	}
)

// RegisterProfile names an option group for lookup via Profile. It
// overwrites an existing registration (latest wins, like SetDefault in
// the allocator registry).
func RegisterProfile(name string, opts ...Option) {
	profileMu.Lock()
	defer profileMu.Unlock()
	profileReg[name] = WithProfile(opts...)
}

// Profiles lists registered profile names, sorted.
func Profiles() []string {
	profileMu.RLock()
	defer profileMu.RUnlock()
	names := make([]string, 0, len(profileReg))
	for n := range profileReg {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Profile resolves a registered profile by name ("fastpath", "smp", or
// anything added with RegisterProfile). An unknown name is not a
// panic and not silently ignored: it is recorded on the spec and
// surfaces as a precise error from Runtime.Validate/Build — the same
// up-front-validation contract every other option follows.
func Profile(name string) Option {
	profileMu.RLock()
	opt, ok := profileReg[name]
	profileMu.RUnlock()
	if !ok {
		return func(s *Spec) { s.badProfiles = append(s.badProfiles, name) }
	}
	return opt
}
