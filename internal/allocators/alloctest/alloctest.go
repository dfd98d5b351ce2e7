// Package alloctest provides a conformance and property-test harness run
// against every ukalloc backend. It verifies the invariants the paper's
// allocator experiments rely on: allocations never overlap, alignment
// guarantees hold, payload bytes survive until free, (for reclaiming
// allocators) the heap is fully recoverable after frees, and the arena's
// dirty set covers every byte the backend or its callers wrote.
// FuzzAllocators in this package's tests drives all five backends
// through one operation sequence against those same properties.
package alloctest

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"unikraft/internal/sim"
	"unikraft/internal/ukalloc"
)

// Caps describes which optional behaviours a backend supports.
type Caps struct {
	// Reclaims is false for region allocators (bootalloc) whose Free is
	// a no-op: recovery and reuse tests are skipped.
	Reclaims bool
	// CheckConsistency, if non-nil, is invoked between operations in the
	// random-workload test (e.g. TLSF's structural validator).
	CheckConsistency func() error
}

// New constructs a fresh, initialized backend over a heap of the given
// size.
type New func(heapBytes int) ukalloc.Allocator

// live tracks one live allocation and its fill pattern.
type live struct {
	p       ukalloc.Ptr
	n       int
	pattern byte
}

var zeroPage [ukalloc.PageSize]byte

// CheckDirtySet verifies the property recycling rests on: every page of
// arena outside its dirty set reads zero.
func CheckDirtySet(arena *ukalloc.Arena) error {
	mem := arena.Bytes()
	for off := 0; off < len(mem); off += ukalloc.PageSize {
		page := mem[off:min(off+ukalloc.PageSize, len(mem))]
		if !arena.Marked(off/ukalloc.PageSize) && !bytes.Equal(page, zeroPage[:len(page)]) {
			return fmt.Errorf("page %d holds a non-zero byte but is not in the dirty set", off/ukalloc.PageSize)
		}
	}
	return nil
}

// CheckScrub verifies CheckDirtySet, scrubs arena and verifies that it
// then reads all-zero with an empty dirty set — what the next VM to take
// it from a boot context's free list relies on.
func CheckScrub(arena *ukalloc.Arena) error {
	if err := CheckDirtySet(arena); err != nil {
		return err
	}
	arena.Scrub()
	for off := 0; off < arena.Len(); off += ukalloc.PageSize {
		if arena.Marked(off / ukalloc.PageSize) {
			return fmt.Errorf("page %d still marked after Scrub", off/ukalloc.PageSize)
		}
	}
	return CheckDirtySet(arena)
}

// Run executes the full conformance suite against a backend.
func Run(t *testing.T, name string, mk New, caps Caps) {
	t.Helper()
	t.Run("Basics", func(t *testing.T) { testBasics(t, mk) })
	t.Run("Alignment", func(t *testing.T) { testAlignment(t, mk) })
	t.Run("ZeroAndNil", func(t *testing.T) { testZeroAndNil(t, mk) })
	t.Run("Calloc", func(t *testing.T) { testCalloc(t, mk) })
	t.Run("Realloc", func(t *testing.T) { testRealloc(t, mk) })
	t.Run("OOM", func(t *testing.T) { testOOM(t, mk, caps) })
	t.Run("RandomWorkload", func(t *testing.T) { testRandomWorkload(t, mk, caps) })
	t.Run("QuickNonOverlap", func(t *testing.T) { testQuickNonOverlap(t, mk) })
	if caps.Reclaims {
		t.Run("Recovery", func(t *testing.T) { testRecovery(t, mk) })
		t.Run("Churn", func(t *testing.T) { testChurn(t, mk, caps) })
	}
}

func testBasics(t *testing.T, mk New) {
	a := mk(1 << 20)
	p, err := a.Malloc(100)
	if err != nil {
		t.Fatalf("Malloc(100): %v", err)
	}
	if p.IsNil() {
		t.Fatal("Malloc returned nil Ptr without error")
	}
	if us := a.UsableSize(p); us < 100 {
		t.Fatalf("UsableSize = %d, want >= 100", us)
	}
	b := ukalloc.Bytes(a, p, 100)
	for i := range b {
		b[i] = 0xAB
	}
	if err := a.Free(p); err != nil {
		t.Fatalf("Free: %v", err)
	}
	st := a.Stats()
	if st.Mallocs != 1 || st.Frees != 1 {
		t.Fatalf("stats = %+v, want 1 malloc / 1 free", st)
	}
	if st.HeapBytes != 1<<20 {
		t.Fatalf("HeapBytes = %d, want %d", st.HeapBytes, 1<<20)
	}
}

func testAlignment(t *testing.T, mk New) {
	a := mk(4 << 20)
	for _, n := range []int{1, 7, 16, 100, 4096} {
		p, err := a.Malloc(n)
		if err != nil {
			t.Fatalf("Malloc(%d): %v", n, err)
		}
		if int(p)%ukalloc.MinAlign != 0 {
			t.Errorf("Malloc(%d) = offset %d, not %d-aligned", n, p, ukalloc.MinAlign)
		}
	}
	for _, align := range []int{16, 32, 64, 256, 4096} {
		p, err := a.Memalign(align, 64)
		if err != nil {
			t.Fatalf("Memalign(%d, 64): %v", align, err)
		}
		if int(p)%align != 0 {
			t.Errorf("Memalign(%d) = offset %d, not aligned", align, p)
		}
		if us := a.UsableSize(p); us < 64 {
			t.Errorf("Memalign(%d) usable = %d, want >= 64", align, us)
		}
		if err := a.Free(p); err != nil {
			t.Errorf("Free(memalign %d): %v", align, err)
		}
	}
	if _, err := a.Memalign(3, 8); err != ukalloc.ErrBadAlign {
		t.Errorf("Memalign(3, 8) err = %v, want ErrBadAlign", err)
	}
}

func testZeroAndNil(t *testing.T, mk New) {
	a := mk(1 << 20)
	if err := a.Free(0); err != nil {
		t.Errorf("Free(nil) = %v, want nil", err)
	}
	p, err := a.Malloc(0)
	if err != nil {
		t.Fatalf("Malloc(0): %v", err)
	}
	if p.IsNil() {
		t.Error("Malloc(0) returned nil Ptr; want a unique allocation")
	}
	if err := a.Free(p); err != nil {
		t.Errorf("Free(Malloc(0)): %v", err)
	}
	if _, err := a.Malloc(-1); err == nil {
		t.Error("Malloc(-1) succeeded; want error")
	}
}

func testCalloc(t *testing.T, mk New) {
	a := mk(1 << 20)
	// Dirty the heap first so Calloc's zeroing is observable.
	p, _ := a.Malloc(512)
	b := ukalloc.Bytes(a, p, 512)
	for i := range b {
		b[i] = 0xFF
	}
	if err := a.Free(p); err != nil {
		t.Fatalf("Free: %v", err)
	}
	cp, err := ukalloc.Calloc(a, 16, 32)
	if err != nil {
		t.Fatalf("Calloc: %v", err)
	}
	cb := ukalloc.Bytes(a, cp, 512)
	for i, v := range cb {
		if v != 0 {
			t.Fatalf("Calloc byte %d = %#x, want 0", i, v)
		}
	}
	if _, err := ukalloc.Calloc(a, 1<<40, 1<<40); err == nil {
		t.Error("Calloc overflow succeeded; want error")
	}
}

func testRealloc(t *testing.T, mk New) {
	a := mk(4 << 20)
	p, err := a.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	b := ukalloc.Bytes(a, p, 64)
	for i := range b {
		b[i] = byte(i)
	}
	np, err := a.Realloc(p, 4096)
	if err != nil {
		t.Fatalf("Realloc grow: %v", err)
	}
	nb := ukalloc.Bytes(a, np, 64)
	for i := range nb {
		if nb[i] != byte(i) {
			t.Fatalf("Realloc lost byte %d: got %d want %d", i, nb[i], byte(i))
		}
	}
	// Shrink keeps contents too.
	sp, err := a.Realloc(np, 32)
	if err != nil {
		t.Fatalf("Realloc shrink: %v", err)
	}
	sb := ukalloc.Bytes(a, sp, 32)
	for i := range sb {
		if sb[i] != byte(i) {
			t.Fatalf("shrink lost byte %d", i)
		}
	}
	// Realloc(nil) == Malloc; Realloc(p, 0) == Free.
	q, err := a.Realloc(0, 128)
	if err != nil || q.IsNil() {
		t.Fatalf("Realloc(nil, 128) = %v, %v", q, err)
	}
	z, err := a.Realloc(q, 0)
	if err != nil || !z.IsNil() {
		t.Fatalf("Realloc(p, 0) = %v, %v; want nil, nil", z, err)
	}
	if err := a.Free(sp); err != nil {
		t.Fatal(err)
	}
}

func testOOM(t *testing.T, mk New, caps Caps) {
	a := mk(256 << 10)
	if _, err := a.Malloc(1 << 30); err != ukalloc.ErrNoMem {
		t.Fatalf("huge Malloc err = %v, want ErrNoMem", err)
	}
	if a.Stats().Failures == 0 {
		t.Error("Failures counter not incremented on OOM")
	}
	// Exhaust the heap with allocations, then verify ErrNoMem is clean
	// (no panic) and, for reclaiming allocators, that freeing restores
	// service.
	var ptrs []ukalloc.Ptr
	for {
		p, err := a.Malloc(4096)
		if err != nil {
			break
		}
		ptrs = append(ptrs, p)
		if len(ptrs) > 1<<16 {
			t.Fatal("allocated implausibly many 4KiB blocks from 256KiB")
		}
	}
	if len(ptrs) == 0 {
		t.Fatal("could not allocate anything")
	}
	if caps.Reclaims {
		for _, p := range ptrs {
			if err := a.Free(p); err != nil {
				t.Fatalf("Free during drain: %v", err)
			}
		}
		if _, err := a.Malloc(4096); err != nil {
			t.Fatalf("Malloc after full drain: %v", err)
		}
	}
}

// testRandomWorkload runs a deterministic random malloc/free/realloc mix
// and continuously verifies that payloads do not stomp each other.
func testRandomWorkload(t *testing.T, mk New, caps Caps) {
	a := mk(8 << 20)
	rng := sim.NewRand(42)
	var lives []live
	check := func(l live) {
		b := ukalloc.Bytes(a, l.p, l.n)
		for i, v := range b {
			if v != l.pattern {
				t.Fatalf("allocation %d (size %d) corrupted at byte %d: got %#x want %#x",
					l.p, l.n, i, v, l.pattern)
			}
		}
	}
	fill := func(l live) {
		b := ukalloc.Bytes(a, l.p, l.n)
		for i := range b {
			b[i] = l.pattern
		}
	}
	steps := 4000
	if testing.Short() {
		steps = 800
	}
	for i := 0; i < steps; i++ {
		op := rng.Intn(100)
		switch {
		case op < 55 || len(lives) == 0: // malloc
			n := 1 + rng.Intn(2048)
			if rng.Intn(20) == 0 {
				n = 1 + rng.Intn(64<<10) // occasional large
			}
			p, err := a.Malloc(n)
			if err != nil {
				continue // heap pressure is fine
			}
			l := live{p: p, n: n, pattern: byte(rng.Intn(255) + 1)}
			fill(l)
			lives = append(lives, l)
		case op < 85 && caps.Reclaims: // free
			i := rng.Intn(len(lives))
			l := lives[i]
			check(l)
			if err := a.Free(l.p); err != nil {
				t.Fatalf("Free(%d): %v", l.p, err)
			}
			lives[i] = lives[len(lives)-1]
			lives = lives[:len(lives)-1]
		default: // realloc
			i := rng.Intn(len(lives))
			l := lives[i]
			check(l)
			n := 1 + rng.Intn(4096)
			np, err := a.Realloc(l.p, n)
			if err != nil {
				continue
			}
			keep := l.n
			if n < keep {
				keep = n
			}
			nl := live{p: np, n: keep, pattern: l.pattern}
			check(nl)
			nl.n = n
			fill(nl)
			lives[i] = nl
		}
		if caps.CheckConsistency != nil && i%64 == 0 {
			if err := caps.CheckConsistency(); err != nil {
				t.Fatalf("consistency after step %d: %v", i, err)
			}
		}
	}
	// Final verification and teardown.
	for _, l := range lives {
		check(l)
		if caps.Reclaims {
			if err := a.Free(l.p); err != nil {
				t.Fatalf("final Free: %v", err)
			}
		}
	}
	if caps.CheckConsistency != nil {
		if err := caps.CheckConsistency(); err != nil {
			t.Fatalf("final consistency: %v", err)
		}
	}
	if err := CheckScrub(a.Arena()); err != nil {
		t.Fatal(err)
	}
}

// testQuickNonOverlap uses testing/quick to generate allocation size
// vectors and asserts that all returned ranges are disjoint.
func testQuickNonOverlap(t *testing.T, mk New) {
	f := func(sizes []uint16) bool {
		if len(sizes) > 128 {
			sizes = sizes[:128]
		}
		a := mk(16 << 20)
		type span struct{ lo, hi int }
		var spans []span
		for _, s := range sizes {
			n := int(s)%8192 + 1
			p, err := a.Malloc(n)
			if err != nil {
				continue
			}
			if int(p)+n > a.Arena().Len() {
				return false // escaped the arena
			}
			spans = append(spans, span{int(p), int(p) + n})
		}
		for i := range spans {
			for j := i + 1; j < len(spans); j++ {
				if spans[i].lo < spans[j].hi && spans[j].lo < spans[i].hi {
					return false // overlap
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 25}
	if testing.Short() {
		cfg.MaxCount = 5
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// testRecovery verifies a reclaiming allocator gives the heap back: after
// freeing everything, a large fraction of the heap is allocatable as one
// block (buddy/TLSF coalescing must work for this to pass).
func testRecovery(t *testing.T, mk New) {
	const heap = 4 << 20
	a := mk(heap)
	var ptrs []ukalloc.Ptr
	for i := 0; i < 512; i++ {
		p, err := a.Malloc(1024)
		if err != nil {
			break
		}
		ptrs = append(ptrs, p)
	}
	// Free in interleaved order to exercise coalescing paths.
	for i := 0; i < len(ptrs); i += 2 {
		if err := a.Free(ptrs[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < len(ptrs); i += 2 {
		if err := a.Free(ptrs[i]); err != nil {
			t.Fatal(err)
		}
	}
	big, err := a.Malloc(heap / 3)
	if err != nil {
		t.Fatalf("Malloc(heap/3) after full free: %v (coalescing broken?)", err)
	}
	if err := a.Free(big); err != nil {
		t.Fatal(err)
	}
}

// testChurn runs a fixed-live-set churn loop (the Redis-like usage
// pattern from Fig 18) and verifies the allocator neither leaks nor
// degrades into OOM.
func testChurn(t *testing.T, mk New, caps Caps) {
	a := mk(8 << 20)
	rng := sim.NewRand(7)
	slots := make([]ukalloc.Ptr, 256)
	sizes := make([]int, 256)
	iters := 20000
	if testing.Short() {
		iters = 2000
	}
	for i := 0; i < iters; i++ {
		s := rng.Intn(len(slots))
		if !slots[s].IsNil() {
			if err := a.Free(slots[s]); err != nil {
				t.Fatalf("iter %d: Free: %v", i, err)
			}
		}
		n := 16 + rng.Intn(1024)
		p, err := a.Malloc(n)
		if err != nil {
			t.Fatalf("iter %d: Malloc(%d): %v (live ~%d KiB)", i, n, err, sumKiB(sizes))
		}
		slots[s], sizes[s] = p, n
	}
	for s, p := range slots {
		if !p.IsNil() {
			if err := a.Free(p); err != nil {
				t.Fatalf("teardown Free slot %d: %v", s, err)
			}
		}
	}
	if caps.CheckConsistency != nil {
		if err := caps.CheckConsistency(); err != nil {
			t.Fatal(err)
		}
	}
}

func sumKiB(sizes []int) int {
	tot := 0
	for _, n := range sizes {
		tot += n
	}
	return tot / 1024
}
