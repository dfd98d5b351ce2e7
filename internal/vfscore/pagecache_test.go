package vfscore_test

import (
	"bytes"
	"testing"

	"unikraft/internal/ramfs"
	"unikraft/internal/sim"
	"unikraft/internal/vfscore"
)

// newVFSWithFile builds a VFS over a ramfs holding one file.
func newVFSWithFile(t *testing.T, path string, data []byte) (*vfscore.VFS, *sim.Machine) {
	t.Helper()
	m := sim.NewMachine()
	v := vfscore.New(m)
	if err := v.Mount("/", ramfs.New()); err != nil {
		t.Fatal(err)
	}
	fd, err := v.Open(path, vfscore.OCreate|vfscore.OWrOnly)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.Write(fd, data); err != nil {
		t.Fatal(err)
	}
	if err := v.Close(fd); err != nil {
		t.Fatal(err)
	}
	return v, m
}

func pattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + i%26)
	}
	return b
}

// sendAll collects a full Sendfile run into one buffer.
func sendAll(t *testing.T, v *vfscore.VFS, fd int, off, n int64) []byte {
	t.Helper()
	var out bytes.Buffer
	total, err := v.Sendfile(fd, off, n, func(p []byte) error {
		out.Write(p)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if int64(out.Len()) != total {
		t.Fatalf("Sendfile reported %d bytes, emitted %d", total, out.Len())
	}
	return out.Bytes()
}

// TestSendfileContent: sendfile reproduces the file bytes exactly,
// cached and uncached, including unaligned ranges.
func TestSendfileContent(t *testing.T) {
	data := pattern(3*vfscore.PageSize + 123)
	for _, cached := range []bool{false, true} {
		v, _ := newVFSWithFile(t, "/blob.bin", data)
		if cached {
			v.EnablePageCache(64)
		}
		fd, err := v.Open("/blob.bin", vfscore.ORdOnly)
		if err != nil {
			t.Fatal(err)
		}
		if got := sendAll(t, v, fd, 0, -1); !bytes.Equal(got, data) {
			t.Fatalf("cached=%v: whole-file sendfile mismatch (%d vs %d bytes)", cached, len(got), len(data))
		}
		// Unaligned slice spanning a page boundary.
		if got := sendAll(t, v, fd, 4000, 500); !bytes.Equal(got, data[4000:4500]) {
			t.Fatalf("cached=%v: ranged sendfile mismatch", cached)
		}
		// Past EOF: empty, no error.
		if got := sendAll(t, v, fd, int64(len(data))+10, 100); len(got) != 0 {
			t.Fatalf("cached=%v: sendfile past EOF emitted %d bytes", cached, len(got))
		}
	}
}

// TestSendfileCacheCheaper: a second (cached) sendfile of the same file
// charges far fewer cycles than the first, and the cached pages of a
// SliceReader filesystem are shared views, not copies.
func TestSendfileCacheCheaper(t *testing.T) {
	data := pattern(16 * vfscore.PageSize)
	v, m := newVFSWithFile(t, "/big.bin", data)
	v.EnablePageCache(64)
	fd, err := v.Open("/big.bin", vfscore.ORdOnly)
	if err != nil {
		t.Fatal(err)
	}
	emit := func(p []byte) error { return nil }
	before := m.CPU.Cycles()
	if _, err := v.Sendfile(fd, 0, -1, emit); err != nil {
		t.Fatal(err)
	}
	cold := m.CPU.Cycles() - before
	before = m.CPU.Cycles()
	if _, err := v.Sendfile(fd, 0, -1, emit); err != nil {
		t.Fatal(err)
	}
	warm := m.CPU.Cycles() - before
	if warm >= cold {
		t.Errorf("warm sendfile (%d cycles) not below cold (%d)", warm, cold)
	}
	st := v.CacheStats()
	if st.Hits != 16 || st.Misses != 16 {
		t.Errorf("stats = %+v, want 16 hits / 16 misses", st)
	}
	// ramfs implements SliceReader, so every fill must have been a
	// zero-copy shared view.
	if st.SharedFills != 16 {
		t.Errorf("SharedFills = %d, want 16 (ramfs pages are shared views)", st.SharedFills)
	}
}

// TestPageCacheInvalidationOnWrite: a write drops the file's cached
// pages and the next sendfile serves the new content — never stale
// bytes.
func TestPageCacheInvalidationOnWrite(t *testing.T) {
	data := pattern(2 * vfscore.PageSize)
	v, _ := newVFSWithFile(t, "/f.txt", data)
	v.EnablePageCache(64)
	fd, err := v.Open("/f.txt", vfscore.ORdWr)
	if err != nil {
		t.Fatal(err)
	}
	if got := sendAll(t, v, fd, 0, -1); !bytes.Equal(got, data) {
		t.Fatal("priming read mismatch")
	}
	if v.CacheStats().Misses == 0 {
		t.Fatal("cache never filled")
	}

	// Overwrite the middle of page 0 through PWrite.
	patch := []byte("INVALIDATED!")
	if _, err := v.PWrite(fd, patch, 100); err != nil {
		t.Fatal(err)
	}
	want := append([]byte(nil), data...)
	copy(want[100:], patch)
	if got := sendAll(t, v, fd, 0, -1); !bytes.Equal(got, want) {
		t.Fatal("sendfile served stale cached content after PWrite")
	}
	if inv := v.CacheStats().Invalidations; inv == 0 {
		t.Error("write did not invalidate cached pages")
	}

	// Truncate-on-open invalidates too.
	fd2, err := v.Open("/f.txt", vfscore.OWrOnly|vfscore.OTrunc)
	if err != nil {
		t.Fatal(err)
	}
	v.Close(fd2)
	if got := sendAll(t, v, fd, 0, -1); len(got) != 0 {
		t.Fatalf("sendfile after truncate emitted %d stale bytes", len(got))
	}
}

// TestPageCacheEviction: the cache respects its page budget.
func TestPageCacheEviction(t *testing.T) {
	v, _ := newVFSWithFile(t, "/big.bin", pattern(10*vfscore.PageSize))
	v.EnablePageCache(4)
	if v.CacheFIFOLen() != 0 {
		t.Fatal("fresh cache not empty")
	}
	fd, err := v.Open("/big.bin", vfscore.ORdOnly)
	if err != nil {
		t.Fatal(err)
	}
	sendAll(t, v, fd, 0, -1)
	st := v.CacheStats()
	if st.Evictions < 6 {
		t.Errorf("evictions = %d, want >= 6 (10 pages through a 4-page cache)", st.Evictions)
	}
}

// TestPageCacheStaleEntryEviction: a FIFO entry orphaned by an
// invalidation must never evict the page re-inserted later under the
// same key — the freshest page is not the eviction victim.
func TestPageCacheStaleEntryEviction(t *testing.T) {
	pageA := pattern(vfscore.PageSize)
	m := sim.NewMachine()
	v := vfscore.New(m)
	if err := v.Mount("/", ramfs.New()); err != nil {
		t.Fatal(err)
	}
	mk := func(name string, data []byte) int {
		t.Helper()
		fd, err := v.Open(name, vfscore.OCreate|vfscore.ORdWr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := v.Write(fd, data); err != nil {
			t.Fatal(err)
		}
		return fd
	}
	fdA := mk("/a", pageA)
	fdB := mk("/b", pattern(vfscore.PageSize))
	fdC := mk("/c", pattern(vfscore.PageSize))
	v.EnablePageCache(2)
	emit := func([]byte) error { return nil }
	read := func(fd int) {
		t.Helper()
		if _, err := v.Sendfile(fd, 0, -1, emit); err != nil {
			t.Fatal(err)
		}
	}
	read(fdA) // fifo: [A]
	read(fdB) // fifo: [A, B]
	// Invalidate A (write), refill it: the old [A] entry is stale, the
	// refilled A sits behind B in true insertion order.
	if _, err := v.PWrite(fdA, []byte{'!'}, 0); err != nil {
		t.Fatal(err)
	}
	read(fdA) // fifo: [A(stale), B, A']
	// Inserting C must evict B (the genuinely oldest page), not the
	// just-refilled A.
	read(fdC)
	hitsBefore := v.CacheStats().Hits
	read(fdA)
	if v.CacheStats().Hits == hitsBefore {
		t.Error("freshly refilled page was evicted through its stale FIFO entry")
	}
}

// TestPageCacheFIFOBounded: a workload that interleaves writes
// (invalidating, so residency never crosses the budget) with re-reads
// must not grow the eviction queue without bound.
func TestPageCacheFIFOBounded(t *testing.T) {
	v, _ := newVFSWithFile(t, "/f.bin", pattern(vfscore.PageSize))
	const budget = 8
	v.EnablePageCache(budget)
	fd, err := v.Open("/f.bin", vfscore.ORdWr)
	if err != nil {
		t.Fatal(err)
	}
	emit := func([]byte) error { return nil }
	for i := 0; i < 10_000; i++ {
		if _, err := v.Sendfile(fd, 0, -1, emit); err != nil {
			t.Fatal(err)
		}
		if _, err := v.PWrite(fd, []byte{byte(i)}, 0); err != nil {
			t.Fatal(err)
		}
	}
	st := v.CacheStats()
	if st.Invalidations < 9_000 {
		t.Fatalf("workload did not exercise invalidation: %+v", st)
	}
	if got := v.CacheFIFOLen(); got > 4*budget+1 {
		t.Errorf("eviction queue grew to %d entries (budget %d): stale entries never compacted", got, budget)
	}
}

// TestSendfileWithoutCache: the cacheless fallback still streams whole
// files correctly (per-page reads).
func TestSendfileWithoutCache(t *testing.T) {
	data := pattern(vfscore.PageSize + 17)
	v, _ := newVFSWithFile(t, "/f.bin", data)
	fd, err := v.Open("/f.bin", vfscore.ORdOnly)
	if err != nil {
		t.Fatal(err)
	}
	if got := sendAll(t, v, fd, 0, -1); !bytes.Equal(got, data) {
		t.Fatal("cacheless sendfile mismatch")
	}
	if st := v.CacheStats(); st.Hits+st.Misses != 0 {
		t.Errorf("cacheless sendfile touched cache stats: %+v", st)
	}
}

// TestSendfileErrors: bad descriptors and directories are rejected.
func TestSendfileErrors(t *testing.T) {
	v, _ := newVFSWithFile(t, "/f.txt", []byte("x"))
	if err := v.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Sendfile(99, 0, -1, func([]byte) error { return nil }); err != vfscore.ErrBadFD {
		t.Errorf("bad fd: got %v", err)
	}
	fd, err := v.Open("/d", vfscore.ORdOnly)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.Sendfile(fd, 0, -1, func([]byte) error { return nil }); err != vfscore.ErrIsDir {
		t.Errorf("dir sendfile: got %v", err)
	}
	fd2, _ := v.Open("/f.txt", vfscore.ORdOnly)
	if _, err := v.Sendfile(fd2, -1, 4, func([]byte) error { return nil }); err != vfscore.ErrInvalid {
		t.Errorf("negative offset: got %v", err)
	}
}

// TestPageCacheChurnAllocs: a cache smaller than the file it serves
// misses, inserts and evicts on every page, and once warm none of that
// allocates.
func TestPageCacheChurnAllocs(t *testing.T) {
	v, _ := newVFSWithFile(t, "/big.bin", pattern(64*vfscore.PageSize))
	v.EnablePageCache(8)
	fd, err := v.Open("/big.bin", vfscore.ORdOnly)
	if err != nil {
		t.Fatal(err)
	}
	emit := func([]byte) error { return nil }
	send := func() {
		if _, err := v.Sendfile(fd, 0, -1, emit); err != nil {
			t.Fatal(err)
		}
	}
	for range 4 {
		send()
	}
	evicted := v.CacheStats().Evictions
	if n := testing.AllocsPerRun(50, send); n != 0 {
		t.Fatalf("a warmed 64-page sendfile through an 8-page cache allocates %v times, want 0", n)
	}
	if v.CacheStats().Evictions-evicted < 50*64 {
		t.Fatal("the cache did not evict on every page")
	}
}
