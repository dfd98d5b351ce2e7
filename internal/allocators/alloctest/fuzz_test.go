package alloctest_test

import (
	"errors"
	"fmt"
	"testing"

	"unikraft/internal/allocators/alloctest"
	_ "unikraft/internal/allocators/bootalloc"
	_ "unikraft/internal/allocators/buddy"
	_ "unikraft/internal/allocators/mimalloc"
	_ "unikraft/internal/allocators/tinyalloc"
	_ "unikraft/internal/allocators/tlsf"
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
	opScrubReinit // scrub, then a new backend (VM.Close, next Boot)
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

type subject struct {
	name     string
	reclaims bool
	a        ukalloc.Allocator
	arena    *ukalloc.Arena
	lives    []block
	free0    int // FreeBytes right after Init
}

func (s *subject) init() error {
	a, err := ukalloc.NewOver(s.name, nil, s.arena)
	if err != nil {
		return err
	}
	st := a.Stats()
	if s.a == nil {
		s.free0 = st.FreeBytes
	} else if st.FreeBytes != s.free0 {
		return fmt.Errorf("re-Init FreeBytes = %d, first Init had %d", st.FreeBytes, s.free0)
	}
	s.a, s.lives = a, s.lives[:0]
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
		subs[i] = &subject{name: b.name, reclaims: b.reclaims, arena: ukalloc.NewArena(fuzzHeap)}
		if err := subs[i].init(); err != nil {
			t.Fatalf("%s: Init: %v", b.name, err)
		}
	}
	for step := 0; step < fuzzOps && len(data) >= 4; step, data = step+1, data[4:] {
		o := decode(data)
		for _, s := range subs {
			if err := s.apply(o); err != nil {
				t.Fatalf("%s: step %d %+v: %v", s.name, step, o, err)
			}
			if err := s.check(); err != nil {
				t.Fatalf("%s: after step %d %+v: %v", s.name, step, o, err)
			}
		}
	}
	for _, s := range subs {
		if err := s.finish(); err != nil {
			t.Fatalf("%s: finish: %v", s.name, err)
		}
	}
}

func FuzzAllocators(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{opMalloc, 0x55, 0x01, 0x00, opFree, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) { runOps(t, data) })
}
