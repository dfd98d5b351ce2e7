package alloctest_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"unikraft/internal/allocators/alloctest"
	_ "unikraft/internal/allocators/bootalloc"
	_ "unikraft/internal/allocators/buddy"
	_ "unikraft/internal/allocators/mimalloc"
	_ "unikraft/internal/allocators/tinyalloc"
	_ "unikraft/internal/allocators/tlsf"
	"unikraft/internal/sim"
	"unikraft/internal/ukalloc"
)

// The differential fuzzer decodes one byte string into an operation
// sequence and drives it through all five backends. The model every
// backend is compared against is the fuzzer's own record of what it
// wrote: each live block is filled to its usable size with a pattern,
// and must still read that pattern when it is next touched. After every
// operation each backend must also keep its blocks aligned, inside the
// arena and disjoint, keep its counters consistent with what succeeded,
// and keep every byte it or the fuzzer wrote inside the arena's dirty
// set.
//
// A reuse step scrubs a backend's arena and re-Inits the same backend
// over it in place, as a boot context does with a closed VM's: from
// then on a twin, a fresh backend over a fresh arena, runs the rest of
// the sequence beside it, and the two must return the same Ptrs, report
// the same Stats, charge the same cycles and leave the same arena
// bytes after every operation.

const (
	fuzzHeap = 512 << 10 // seven mimalloc pages; small enough to scan per op
	fuzzOps  = 64
	fuzzLive = 32
)

const (
	opMalloc = iota
	opFree
	opRealloc
	opMemalign
	opWrite
	opReinit      // a new backend over the same, still dirty arena (VM.Reset)
	opScrubReinit // scrub, then a new backend
	opReuse       // scrub, then re-Init the same backend in place (VM.Close, next Boot)
	nOps
)

// reclaims is false for the region allocator, whose Free gives nothing
// back.
var fuzzBackends = []struct {
	name     string
	reclaims bool
}{
	{"bootalloc", false},
	{"buddy", true},
	{"mimalloc", true},
	{"tinyalloc", true},
	{"tlsf", true},
}

type block struct {
	p   ukalloc.Ptr
	n   int // usable size: the bytes the fuzzer filled
	pat byte
}

// cycleSink totals the cycles a backend charges.
type cycleSink struct{ cycles uint64 }

func (c *cycleSink) Pay(id sim.CostID, n uint64) { c.cycles += sim.Cycles(id, n) }

type subject struct {
	name     string
	reclaims bool
	a        ukalloc.Allocator
	arena    *ukalloc.Arena
	sink     *cycleSink
	lives    []block
	free0    int // FreeBytes right after Init
	// twin is a fresh backend made at this one's first reuse step,
	// which then runs every operation this one does.
	twin *subject
}

// newSubject is backend name over a fresh arena, initialized.
func newSubject(name string, reclaims bool) (*subject, error) {
	s := &subject{name: name, reclaims: reclaims, arena: ukalloc.NewArena(fuzzHeap), sink: &cycleSink{}}
	return s, s.init()
}

// init makes a new backend over the arena.
func (s *subject) init() error {
	a, err := ukalloc.NewOver(s.name, s.sink, s.arena)
	if err != nil {
		return err
	}
	if s.a == nil {
		s.free0 = a.Stats().FreeBytes
	}
	s.a = a
	return s.initialized()
}

// reuse re-Inits the backend in place over its scrubbed arena; the
// cycle count restarts there, as a fresh backend's does.
func (s *subject) reuse() error {
	if err := alloctest.CheckScrub(s.arena); err != nil {
		return err
	}
	s.sink.cycles = 0
	if err := s.a.Init(s.arena); err != nil {
		return err
	}
	return s.initialized()
}

func (s *subject) initialized() error {
	if st := s.a.Stats(); st.FreeBytes != s.free0 {
		return fmt.Errorf("re-Init FreeBytes = %d, first Init had %d", st.FreeBytes, s.free0)
	}
	s.lives = s.lives[:0]
	return nil
}

// same reports how s and its twin t have parted ways, if they have.
func (s *subject) same(t *subject) error {
	if len(s.lives) != len(t.lives) {
		return fmt.Errorf("%d live blocks, a fresh backend has %d", len(s.lives), len(t.lives))
	}
	for i := range s.lives {
		if s.lives[i] != t.lives[i] {
			return fmt.Errorf("live block %d is %+v, a fresh backend's %+v", i, s.lives[i], t.lives[i])
		}
	}
	if a, b := s.a.Stats(), t.a.Stats(); a != b {
		return fmt.Errorf("stats %+v, a fresh backend's %+v", a, b)
	}
	if s.sink.cycles != t.sink.cycles {
		return fmt.Errorf("charged %d cycles since the reuse, a fresh backend %d", s.sink.cycles, t.sink.cycles)
	}
	if !bytes.Equal(s.arena.Bytes(), t.arena.Bytes()) {
		return errors.New("arena bytes differ from a fresh backend's")
	}
	return nil
}

func (s *subject) bytes(b block) []byte { return ukalloc.Bytes(s.a, b.p, b.n) }

func (s *subject) verify(b block) error {
	for i, v := range s.bytes(b) {
		if v != b.pat {
			return fmt.Errorf("block %d+%d byte %d = %#x, want %#x", b.p, b.n, i, v, b.pat)
		}
	}
	return nil
}

func (s *subject) fill(b block) {
	mem := s.bytes(b)
	for i := range mem {
		mem[i] = b.pat
	}
}

// admit checks a block the backend just returned for a request of n
// bytes, fills it and records it.
func (s *subject) admit(p ukalloc.Ptr, n, align int, pat byte) error {
	if p.IsNil() {
		return errors.New("nil Ptr without an error")
	}
	if int(p)%align != 0 {
		return fmt.Errorf("block %d not %d-aligned", p, align)
	}
	usable := s.a.UsableSize(p)
	if usable < n {
		return fmt.Errorf("block %d usable %d < requested %d", p, usable, n)
	}
	if int(p)+usable > s.arena.Len() {
		return fmt.Errorf("block %d+%d escapes the %d-byte arena", p, usable, s.arena.Len())
	}
	for _, l := range s.lives {
		if int(p) < int(l.p)+l.n && int(l.p) < int(p)+usable {
			return fmt.Errorf("block %d+%d overlaps live block %d+%d", p, usable, l.p, l.n)
		}
	}
	b := block{p: p, n: usable, pat: pat}
	s.fill(b)
	s.lives = append(s.lives, b)
	return nil
}

func (s *subject) drop(i int) {
	s.lives[i] = s.lives[len(s.lives)-1]
	s.lives = s.lives[:len(s.lives)-1]
}

// op is one decoded operation; every backend sees the same one.
type op struct {
	kind  int
	slot  int
	n     int
	align int
	pat   byte
}

func (s *subject) apply(o op) error {
	before := s.a.Stats()
	var mallocs, frees [2]uint64 // allowed [min, max] counter deltas
	failed := false
	slot := 0
	if len(s.lives) > 0 {
		slot = o.slot % len(s.lives)
	}
	switch o.kind {
	case opMalloc, opMemalign:
		if len(s.lives) >= fuzzLive {
			return nil
		}
		var p ukalloc.Ptr
		var err error
		align := ukalloc.MinAlign
		if o.kind == opMalloc {
			p, err = s.a.Malloc(o.n)
		} else {
			align = max(o.align, ukalloc.MinAlign)
			p, err = s.a.Memalign(o.align, o.n)
		}
		if err != nil {
			if err != ukalloc.ErrNoMem {
				return fmt.Errorf("unexpected error %v", err)
			}
			failed = true
			break
		}
		mallocs = [2]uint64{1, 1}
		if err := s.admit(p, o.n, align, o.pat); err != nil {
			return err
		}
	case opFree:
		if len(s.lives) == 0 {
			return nil
		}
		b := s.lives[slot]
		if err := s.verify(b); err != nil {
			return err
		}
		if err := s.a.Free(b.p); err != nil {
			return fmt.Errorf("Free(%d): %v", b.p, err)
		}
		s.drop(slot)
		frees = [2]uint64{1, 1}
	case opRealloc:
		if len(s.lives) == 0 {
			return nil
		}
		b := s.lives[slot]
		if err := s.verify(b); err != nil {
			return err
		}
		np, err := s.a.Realloc(b.p, o.n)
		if err != nil {
			if err != ukalloc.ErrNoMem {
				return fmt.Errorf("unexpected error %v", err)
			}
			// A refused Realloc leaves the old block as it was.
			failed = true
			if err := s.verify(b); err != nil {
				return fmt.Errorf("after failed Realloc: %w", err)
			}
			break
		}
		s.drop(slot)
		mallocs, frees = [2]uint64{0, 1}, [2]uint64{0, 1}
		if o.n == 0 {
			if !np.IsNil() {
				return fmt.Errorf("Realloc(p, 0) = %d, want nil", np)
			}
			frees[0] = 1
			break
		}
		keep := block{p: np, n: min(b.n, o.n), pat: b.pat}
		if err := s.verify(keep); err != nil {
			return fmt.Errorf("Realloc lost contents: %w", err)
		}
		if err := s.admit(np, o.n, ukalloc.MinAlign, o.pat); err != nil {
			return err
		}
	case opWrite:
		if len(s.lives) == 0 {
			return nil
		}
		s.lives[slot].pat = o.pat
		s.fill(s.lives[slot])
		return nil
	case opReinit:
		return s.init()
	case opScrubReinit:
		if err := alloctest.CheckScrub(s.arena); err != nil {
			return err
		}
		return s.init()
	case opReuse:
		return s.reuse()
	}
	after := s.a.Stats()
	if d := after.Mallocs - before.Mallocs; d < mallocs[0] || d > mallocs[1] {
		return fmt.Errorf("Mallocs moved by %d, want %v", d, mallocs)
	}
	if d := after.Frees - before.Frees; d < frees[0] || d > frees[1] {
		return fmt.Errorf("Frees moved by %d, want %v", d, frees)
	}
	if failed && after.Failures == before.Failures {
		return errors.New("ErrNoMem without a Failures count")
	}
	return nil
}

// check holds after every operation.
func (s *subject) check() error {
	st := s.a.Stats()
	if st.HeapBytes != s.arena.Len() || st.FreeBytes < 0 || st.FreeBytes > st.HeapBytes {
		return fmt.Errorf("stats %+v over a %d-byte arena", st, s.arena.Len())
	}
	live := 0
	for _, l := range s.lives {
		live += l.n
	}
	if used := st.HeapBytes - st.FreeBytes; live > used {
		return fmt.Errorf("%d live payload bytes but only %d accounted as used", live, used)
	}
	return alloctest.CheckDirtySet(s.arena)
}

// finish verifies and frees what is still live, then checks that a
// reclaiming backend accounts for the whole heap again and that a scrub
// leaves nothing behind.
func (s *subject) finish() error {
	for _, b := range s.lives {
		if err := s.verify(b); err != nil {
			return err
		}
		if err := s.a.Free(b.p); err != nil {
			return fmt.Errorf("final Free(%d): %v", b.p, err)
		}
	}
	if got := s.a.Stats().FreeBytes; s.reclaims && got != s.free0 {
		return fmt.Errorf("FreeBytes = %d after freeing everything, was %d after Init", got, s.free0)
	}
	return alloctest.CheckScrub(s.arena)
}

// decode shapes raw fuzz bytes into an operation: sizes are mostly
// small, sometimes a few pages, rarely a sizeable part of the heap.
func decode(raw []byte) op {
	v := int(raw[2])<<8 | int(raw[3])
	n := v >> 2 & 0x1ff
	switch v & 3 {
	case 2:
		n = v >> 2 & 0x3fff
	case 3:
		n = v >> 2 << 3 & 0x1ffff
	}
	return op{
		kind:  int(raw[0]) % nOps,
		slot:  int(raw[1]),
		n:     n,
		align: 1 << (raw[1] % 14), // 1 B .. 8 KiB
		pat:   raw[1] | 1,         // never zero, so a lost write shows
	}
}

func runOps(t testing.TB, data []byte) {
	subs := make([]*subject, len(fuzzBackends))
	for i, b := range fuzzBackends {
		var err error
		if subs[i], err = newSubject(b.name, b.reclaims); err != nil {
			t.Fatalf("%s: Init: %v", b.name, err)
		}
	}
	for step := 0; step < fuzzOps && len(data) >= 4; step, data = step+1, data[4:] {
		o := decode(data)
		for _, s := range subs {
			for _, x := range []*subject{s, s.twin} {
				if x == nil {
					continue
				}
				if err := x.apply(o); err != nil {
					t.Fatalf("%s (twin %v): step %d %+v: %v", s.name, x != s, step, o, err)
				}
				if err := x.check(); err != nil {
					t.Fatalf("%s (twin %v): after step %d %+v: %v", s.name, x != s, step, o, err)
				}
			}
			if o.kind == opReuse && s.twin == nil {
				var err error
				if s.twin, err = newSubject(s.name, s.reclaims); err != nil {
					t.Fatalf("%s: twin Init: %v", s.name, err)
				}
			}
			if s.twin != nil {
				if err := s.same(s.twin); err != nil {
					t.Fatalf("%s: after step %d %+v, re-Inited in place: %v", s.name, step, o, err)
				}
			}
		}
	}
	for _, s := range subs {
		for _, x := range []*subject{s, s.twin} {
			if x == nil {
				continue
			}
			if err := x.finish(); err != nil {
				t.Fatalf("%s (twin %v): finish: %v", s.name, x != s, err)
			}
		}
	}
}

func FuzzAllocators(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{opMalloc, 0x55, 0x01, 0x00, opFree, 0, 0, 0})
	f.Add([]byte{opMalloc, 0x55, 0x01, 0x00, opMalloc, 0x13, 0x9e, 0x02, opReuse, 0, 0, 0,
		opMalloc, 0x55, 0x01, 0x00, opMemalign, 0x2a, 0x40, 0x01, opFree, 0, 0, 0, opMalloc, 0x07, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) { runOps(t, data) })
}
