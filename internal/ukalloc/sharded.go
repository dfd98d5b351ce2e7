package ukalloc

import "fmt"

// Shards is the SMP allocation layout: one complete allocator per vCPU,
// each owning a private arena and charging its work to its own core's
// clock. Per-core arenas are the unikernel answer to allocator lock
// contention — a core's datapath (RX ring, netbufs, sockets) never
// touches another core's heap, so no shard ever synchronizes with
// another. Cross-shard frees are a programming error here, exactly as
// cross-CPU frees are in a real per-CPU slab: each shard's ErrBadPointer
// bookkeeping catches them.
type Shards struct {
	allocs []Allocator
}

// NewShards builds n initialized shards of backend `name` (backend or
// catalog-provider spelling), heapBytes each. sinks[i] receives shard
// i's cycle charges; sinks may be nil (no charging) or shorter than n
// (missing entries charge nothing).
func NewShards(name string, n, heapBytes int, sinks []CostSink) (*Shards, error) {
	if n < 1 {
		return nil, fmt.Errorf("ukalloc: NewShards with %d shards", n)
	}
	s := &Shards{allocs: make([]Allocator, n)}
	for i := 0; i < n; i++ {
		var sink CostSink
		if i < len(sinks) {
			sink = sinks[i]
		}
		a, err := NewInitialized(name, sink, heapBytes)
		if err != nil {
			return nil, fmt.Errorf("ukalloc: shard %d: %w", i, err)
		}
		s.allocs[i] = a
	}
	return s, nil
}

// Shard returns core i's allocator.
func (s *Shards) Shard(i int) Allocator { return s.allocs[i] }
