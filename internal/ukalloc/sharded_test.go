package ukalloc

import (
	"testing"

	"unikraft/internal/sim"
)

func TestShardsIsolation(t *testing.T) {
	ms := []*sim.Machine{sim.NewMachine(), sim.NewMachine()}
	s, err := NewShards("tlsf", 2, 1<<20, []CostSink{ms[0], ms[1]})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.allocs) != 2 {
		t.Fatalf("shards = %d, want 2", len(s.allocs))
	}
	// Construction (Init) charges each shard's own sink; measure the
	// malloc against post-construction baselines.
	base0, base1 := ms[0].CPU.Cycles(), ms[1].CPU.Cycles()
	p0, err := s.Shard(0).Malloc(256)
	if err != nil {
		t.Fatal(err)
	}
	// Shard 0's work charges core 0 only.
	if ms[0].CPU.Cycles() == base0 {
		t.Fatal("shard 0 malloc charged nothing to core 0")
	}
	if ms[1].CPU.Cycles() != base1 {
		t.Fatal("shard 0 malloc charged core 1")
	}
	// Cross-shard free is a caught error, like a cross-CPU slab free.
	if err := s.Shard(1).Free(p0); err == nil {
		t.Fatal("cross-shard Free succeeded")
	}
	if err := s.Shard(0).Free(p0); err != nil {
		t.Fatalf("home-shard Free: %v", err)
	}
}

func TestShardsStatsAggregate(t *testing.T) {
	s, err := NewShards("tlsf", 4, 1<<20, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(s.allocs); i++ {
		if _, err := s.Shard(i).Malloc(128); err != nil {
			t.Fatal(err)
		}
	}
	st := s.stats()
	if st.Mallocs != 4 {
		t.Fatalf("aggregate Mallocs = %d, want 4", st.Mallocs)
	}
	if st.HeapBytes != 4<<20 {
		t.Fatalf("aggregate HeapBytes = %d, want %d", st.HeapBytes, 4<<20)
	}
}

func TestShardsValidation(t *testing.T) {
	if _, err := NewShards("tlsf", 0, 1<<20, nil); err == nil {
		t.Fatal("0 shards accepted")
	}
	if _, err := NewShards("no-such-backend", 2, 1<<20, nil); err == nil {
		t.Fatal("unknown backend accepted")
	}
	// Short sink slice: missing entries simply charge nothing.
	m := sim.NewMachine()
	s, err := NewShards("tlsf", 2, 1<<20, []CostSink{m})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Shard(1).Malloc(64); err != nil {
		t.Fatal(err)
	}
}

// stats sums counters across shards; HeapBytes/FreeBytes aggregate and
// PeakUsed is the sum of per-shard peaks (an upper bound on concurrent
// usage).
func (s *Shards) stats() Stats {
	var agg Stats
	for _, a := range s.allocs {
		st := a.Stats()
		agg.HeapBytes += st.HeapBytes
		agg.FreeBytes += st.FreeBytes
		agg.Mallocs += st.Mallocs
		agg.Frees += st.Frees
		agg.Failures += st.Failures
		agg.PeakUsed += st.PeakUsed
	}
	return agg
}
