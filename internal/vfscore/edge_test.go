package vfscore_test

import (
	"bytes"
	"testing"

	"unikraft/internal/ramfs"
	"unikraft/internal/sim"
	"unikraft/internal/vfscore"
)

// Edge cases the static-file serving path leans on: descriptor-table
// exhaustion under sustained open/close churn (the pool's per-request
// open), OAppend's interaction with Seek, and reads past EOF.

// TestFDTableExhaustion: the fd table fills to its bound, recovers
// per-close, and sustained churn at the bound (the pool's per-request
// open/sendfile/close pattern) never leaks a slot.
func TestFDTableExhaustion(t *testing.T) {
	v, _ := newVFSWithFile(t, "/f.txt", []byte("hello"))
	v.SetMaxFDs(8)
	var fds []int
	for i := 0; i < 8; i++ {
		fd, err := v.Open("/f.txt", vfscore.ORdOnly)
		if err != nil {
			t.Fatalf("open %d: %v", i, err)
		}
		fds = append(fds, fd)
	}
	if _, err := v.Open("/f.txt", vfscore.ORdOnly); err != vfscore.ErrTooManyFD {
		t.Fatalf("open past the table = %v, want ErrTooManyFD", err)
	}
	// One close frees exactly one slot, and the freed slot is reused.
	if err := v.Close(fds[3]); err != nil {
		t.Fatal(err)
	}
	fd, err := v.Open("/f.txt", vfscore.ORdOnly)
	if err != nil {
		t.Fatalf("open after close: %v", err)
	}
	if fd != fds[3] {
		t.Errorf("freed slot not reused: got fd %d, want %d", fd, fds[3])
	}
	if _, err := v.Open("/f.txt", vfscore.ORdOnly); err != vfscore.ErrTooManyFD {
		t.Fatalf("table should be full again, got %v", err)
	}
	// Serving-style churn at the bound: open/read/close a thousand
	// times against one remaining slot. Any leak fails fast.
	if err := v.Close(fd); err != nil {
		t.Fatal(err)
	}
	var buf [8]byte
	for i := 0; i < 1000; i++ {
		fd, err := v.Open("/f.txt", vfscore.ORdOnly)
		if err != nil {
			t.Fatalf("churn open %d: %v", i, err)
		}
		if _, err := v.PRead(fd, buf[:], 0); err != nil {
			t.Fatal(err)
		}
		if err := v.Close(fd); err != nil {
			t.Fatal(err)
		}
	}
	if got := v.OpenFDs(); got != 7 {
		t.Errorf("OpenFDs after churn = %d, want 7", got)
	}
}

// TestAppendSeekInteraction: OAppend pins every write to EOF no matter
// where Seek moved the offset, while reads honor the seeked position —
// POSIX semantics the log-style writers rely on.
func TestAppendSeekInteraction(t *testing.T) {
	v, _ := newVFSWithFile(t, "/log", []byte("base:"))
	fd, err := v.Open("/log", vfscore.OAppend|vfscore.ORdWr)
	if err != nil {
		t.Fatal(err)
	}
	// Seek to the start, then write: the write must append, not
	// overwrite.
	if _, err := v.Seek(fd, 0, vfscore.SeekSet); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Write(fd, []byte("one")); err != nil {
		t.Fatal(err)
	}
	// Offset now sits at EOF; seek back and read the whole file.
	if _, err := v.Seek(fd, 0, vfscore.SeekSet); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 32)
	n, err := v.Read(fd, buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(buf[:n]); got != "base:one" {
		t.Fatalf("after append+seek, file = %q, want %q", got, "base:one")
	}
	// A second seeked write still appends.
	if _, err := v.Seek(fd, 2, vfscore.SeekSet); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Write(fd, []byte("two")); err != nil {
		t.Fatal(err)
	}
	st, err := v.StatFD(fd)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size != int64(len("base:onetwo")) {
		t.Fatalf("size = %d, want %d", st.Size, len("base:onetwo"))
	}
}

// TestPReadPastEOF: positional reads at and past EOF return 0 bytes
// with no error (the EOF convention the sendfile loop terminates on),
// and partial reads straddling EOF are clipped.
func TestPReadPastEOF(t *testing.T) {
	v, _ := newVFSWithFile(t, "/f.txt", []byte("0123456789"))
	fd, err := v.Open("/f.txt", vfscore.ORdOnly)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	// Exactly at EOF.
	if n, err := v.PRead(fd, buf, 10); n != 0 || err != nil {
		t.Errorf("PRead at EOF = %d, %v, want 0, nil", n, err)
	}
	// Far past EOF.
	if n, err := v.PRead(fd, buf, 1000); n != 0 || err != nil {
		t.Errorf("PRead past EOF = %d, %v, want 0, nil", n, err)
	}
	// Straddling EOF: clipped, not erroring.
	n, err := v.PRead(fd, buf, 6)
	if err != nil || n != 4 {
		t.Errorf("PRead straddling EOF = %d, %v, want 4, nil", n, err)
	}
	if string(buf[:n]) != "6789" {
		t.Errorf("PRead content = %q", buf[:n])
	}
	// The fd's sequential offset is untouched by positional reads.
	n, err = v.Read(fd, buf)
	if err != nil || string(buf[:n]) != "01234567" {
		t.Errorf("sequential read after PReads = %q, %v", buf[:n], err)
	}
}

// TestVFSReset: Reset drops every descriptor (the recycle path) but
// keeps mounts and cache.
func TestVFSReset(t *testing.T) {
	v, _ := newVFSWithFile(t, "/f.txt", []byte("keep"))
	v.EnablePageCache(8)
	fd, err := v.Open("/f.txt", vfscore.ORdOnly)
	if err != nil {
		t.Fatal(err)
	}
	sendAll(t, v, fd, 0, -1)
	if v.OpenFDs() == 0 {
		t.Fatal("no open fds before reset")
	}
	v.Reset()
	if got := v.OpenFDs(); got != 0 {
		t.Fatalf("OpenFDs after Reset = %d", got)
	}
	if _, err := v.Read(fd, make([]byte, 4)); err != vfscore.ErrBadFD {
		t.Errorf("stale fd after Reset = %v, want ErrBadFD", err)
	}
	// Mounts survive: the file reopens, and the cache still holds its
	// page.
	fd2, err := v.Open("/f.txt", vfscore.ORdOnly)
	if err != nil {
		t.Fatal(err)
	}
	before := v.CacheStats().Hits
	if got := sendAll(t, v, fd2, 0, -1); !bytes.Equal(got, []byte("keep")) {
		t.Fatal("content lost across Reset")
	}
	if v.CacheStats().Hits == before {
		t.Error("page cache did not survive Reset")
	}
}

// TestCowFS: reads pass through to the shared base, writes privatize
// (invisible to the base and to sibling views), creations and removals
// overlay, and zero-copy slices come from the base until privatized.
func TestCowFS(t *testing.T) {
	base := ramfs.New()
	f, err := base.Root().Create("shared.txt", false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("template"), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := base.Root().Create("dir", true); err != nil {
		t.Fatal(err)
	}

	m1, m2 := sim.NewMachine(), sim.NewMachine()
	cowA, cowB := vfscore.NewCOW(base), vfscore.NewCOW(base)
	cowA.Pay = m1.Pay
	cowB.Pay = m2.Pay
	vA, vB := vfscore.New(m1), vfscore.New(m2)
	if err := vA.Mount("/", cowA); err != nil {
		t.Fatal(err)
	}
	if err := vB.Mount("/", cowB); err != nil {
		t.Fatal(err)
	}

	read := func(v *vfscore.VFS, path string) string {
		t.Helper()
		fd, err := v.Open(path, vfscore.ORdOnly)
		if err != nil {
			t.Fatalf("open %s: %v", path, err)
		}
		defer v.Close(fd)
		buf := make([]byte, 64)
		n, err := v.PRead(fd, buf, 0)
		if err != nil {
			t.Fatal(err)
		}
		return string(buf[:n])
	}

	// Both clones read the shared content.
	if got := read(vA, "/shared.txt"); got != "template" {
		t.Fatalf("clone A reads %q", got)
	}
	if got := read(vB, "/shared.txt"); got != "template" {
		t.Fatalf("clone B reads %q", got)
	}

	// Clone A writes: only A sees it; B and the template stay pristine.
	fd, err := vA.Open("/shared.txt", vfscore.OWrOnly)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vA.Write(fd, []byte("CLONE-A!")); err != nil {
		t.Fatal(err)
	}
	vA.Close(fd)
	if got := read(vA, "/shared.txt"); got != "CLONE-A!" {
		t.Fatalf("clone A after write reads %q", got)
	}
	if got := read(vB, "/shared.txt"); got != "template" {
		t.Fatalf("COW leak: clone B reads %q after A's write", got)
	}
	tbuf := make([]byte, 64)
	n, _ := f.ReadAt(tbuf, 0)
	if string(tbuf[:n]) != "template" {
		t.Fatalf("COW leak: template mutated to %q", tbuf[:n])
	}
	if cowA.Privatized != 1 {
		t.Errorf("clone A privatized %d nodes, want 1", cowA.Privatized)
	}
	if m1.CPU.Cycles() == 0 {
		t.Error("privatization charged nothing to the clone")
	}

	// Private creations and whiteouts stay clone-local.
	if fd, err = vA.Open("/only-a.txt", vfscore.OCreate|vfscore.OWrOnly); err != nil {
		t.Fatal(err)
	}
	vA.Close(fd)
	if _, err := vB.Open("/only-a.txt", vfscore.ORdOnly); err != vfscore.ErrNotExist {
		t.Errorf("clone B sees A's private file: %v", err)
	}
	if err := vA.Unlink("/shared.txt"); err != nil {
		t.Fatal(err)
	}
	if _, err := vA.Open("/shared.txt", vfscore.ORdOnly); err != vfscore.ErrNotExist {
		t.Errorf("whiteout ignored in clone A: %v", err)
	}
	if got := read(vB, "/shared.txt"); got != "template" {
		t.Fatalf("clone A's unlink leaked to B: %q", got)
	}

	// Remove of a private child shadowing a base entry must keep the
	// whiteout: delete /shared.txt's replacement and the template's
	// original must NOT resurrect.
	if fd, err = vA.Open("/shared.txt", vfscore.OCreate|vfscore.OWrOnly); err != nil {
		t.Fatal(err)
	}
	vA.Close(fd)
	if err := vA.Unlink("/shared.txt"); err != nil {
		t.Fatal(err)
	}
	if _, err := vA.Open("/shared.txt", vfscore.ORdOnly); err != vfscore.ErrNotExist {
		t.Errorf("base file resurrected after remove of its shadow: %v", err)
	}

	// Directory merge: base entries plus private ones, minus whiteouts.
	ents, err := vA.ReadDir("/")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name)
	}
	want := []string{"dir", "only-a.txt"}
	if len(names) != len(want) || names[0] != want[0] || names[1] != want[1] {
		t.Errorf("clone A ReadDir = %v, want %v", names, want)
	}
}

// TestCowSharedSlices: clean CowFS nodes hand out zero-copy views of
// the template's bytes — the fleet-wide page sharing — and privatized
// nodes stop doing so.
func TestCowSharedSlices(t *testing.T) {
	base := ramfs.New()
	f, _ := base.Root().Create("f.bin", false)
	data := pattern(2 * vfscore.PageSize)
	f.WriteAt(data, 0)

	cow := vfscore.NewCOW(base)
	node, err := cow.Root().Lookup("f.bin")
	if err != nil {
		t.Fatal(err)
	}
	sr, ok := node.(vfscore.SliceReader)
	if !ok {
		t.Fatal("clean cow node does not expose SliceReader")
	}
	view, ok := sr.ReadSlice(0, vfscore.PageSize)
	if !ok || len(view) != vfscore.PageSize {
		t.Fatalf("ReadSlice = %d bytes, ok=%v", len(view), ok)
	}
	bsr, _ := mustLookup(t, base).(vfscore.SliceReader)
	bv, _ := bsr.ReadSlice(0, vfscore.PageSize)
	if &view[0] != &bv[0] {
		t.Error("cow slice is a copy, want the template's backing bytes")
	}

	// After privatization the view must come from private data.
	if _, err := node.WriteAt([]byte("X"), 0); err != nil {
		t.Fatal(err)
	}
	view2, ok := sr.ReadSlice(0, vfscore.PageSize)
	if !ok {
		t.Fatal("no slice after privatize")
	}
	if &view2[0] == &bv[0] {
		t.Error("privatized node still aliases template bytes")
	}
	if bv[0] != data[0] {
		t.Error("template bytes mutated by clone write")
	}

	// A lent view of private data keeps its bytes through later writes,
	// shrinking and regrowing included.
	was := string(view2)
	node.WriteAt([]byte("YY"), 0)
	node.Truncate(1)
	node.Truncate(vfscore.PageSize)
	if string(view2) != was {
		t.Error("lent view of private data changed under a write")
	}
	if view3, _ := sr.ReadSlice(0, 2); string(view3) != "Y\x00" {
		t.Errorf("file reads %q after the writes", view3)
	}
}

func mustLookup(t *testing.T, fs *ramfs.FS) vfscore.Node {
	t.Helper()
	n, err := fs.Root().Lookup("f.bin")
	if err != nil {
		t.Fatal(err)
	}
	return n
}
