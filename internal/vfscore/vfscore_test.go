package vfscore_test

import (
	"bytes"
	"testing"
	"testing/quick"

	"unikraft/internal/ramfs"
	"unikraft/internal/sim"
	"unikraft/internal/vfscore"
)

func newVFS(t *testing.T) (*vfscore.VFS, *sim.Machine) {
	t.Helper()
	m := sim.NewMachine()
	v := vfscore.New(m)
	if err := v.Mount("/", ramfs.New()); err != nil {
		t.Fatal(err)
	}
	return v, m
}

func TestCreateWriteRead(t *testing.T) {
	v, _ := newVFS(t)
	fd, err := v.Open("/hello.txt", vfscore.OCreate|vfscore.ORdWr)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("unikernel contents")
	if n, err := v.Write(fd, msg); err != nil || n != len(msg) {
		t.Fatalf("Write = %d, %v", n, err)
	}
	if _, err := v.Seek(fd, 0, vfscore.SeekSet); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	n, err := v.Read(fd, buf)
	if err != nil || !bytes.Equal(buf[:n], msg) {
		t.Fatalf("Read = %q, %v", buf[:n], err)
	}
	if err := v.Close(fd); err != nil {
		t.Fatal(err)
	}
	if v.OpenFDs() != 0 {
		t.Fatalf("OpenFDs = %d after close", v.OpenFDs())
	}
}

func TestOpenSemantics(t *testing.T) {
	v, _ := newVFS(t)
	if _, err := v.Open("/missing", vfscore.ORdOnly); err != vfscore.ErrNotExist {
		t.Errorf("open missing = %v, want ErrNotExist", err)
	}
	fd, err := v.Open("/f", vfscore.OCreate|vfscore.OWrOnly)
	if err != nil {
		t.Fatal(err)
	}
	v.Write(fd, []byte("12345"))
	v.Close(fd)
	if _, err := v.Open("/f", vfscore.OCreate|vfscore.OExcl); err != vfscore.ErrExist {
		t.Errorf("O_EXCL on existing = %v, want ErrExist", err)
	}
	// O_TRUNC empties the file.
	fd, err = v.Open("/f", vfscore.OTrunc|vfscore.ORdWr)
	if err != nil {
		t.Fatal(err)
	}
	st, _ := v.StatFD(fd)
	if st.Size != 0 {
		t.Errorf("size after O_TRUNC = %d", st.Size)
	}
	// Reading from a write-only fd is allowed (simplification) but
	// writing to a read-only fd is not.
	ro, _ := v.Open("/f", vfscore.ORdOnly)
	if _, err := v.Write(ro, []byte("x")); err != vfscore.ErrInvalid {
		t.Errorf("write on O_RDONLY = %v, want ErrInvalid", err)
	}
}

func TestAppendMode(t *testing.T) {
	v, _ := newVFS(t)
	fd, _ := v.Open("/log", vfscore.OCreate|vfscore.OWrOnly)
	v.Write(fd, []byte("one"))
	v.Close(fd)
	fd, _ = v.Open("/log", vfscore.OAppend|vfscore.OWrOnly)
	v.Write(fd, []byte("two"))
	v.Close(fd)
	fd, _ = v.Open("/log", vfscore.ORdOnly)
	buf := make([]byte, 16)
	n, _ := v.Read(fd, buf)
	if string(buf[:n]) != "onetwo" {
		t.Fatalf("append result = %q", buf[:n])
	}
}

func TestDirectories(t *testing.T) {
	v, _ := newVFS(t)
	if err := v.Mkdir("/etc"); err != nil {
		t.Fatal(err)
	}
	if err := v.Mkdir("/etc/nginx"); err != nil {
		t.Fatal(err)
	}
	fd, err := v.Open("/etc/nginx/nginx.conf", vfscore.OCreate|vfscore.OWrOnly)
	if err != nil {
		t.Fatal(err)
	}
	v.Write(fd, []byte("worker_processes 1;"))
	v.Close(fd)

	ents, err := v.ReadDir("/etc")
	if err != nil || len(ents) != 1 || ents[0].Name != "nginx" || !ents[0].IsDir {
		t.Fatalf("ReadDir(/etc) = %v, %v", ents, err)
	}
	st, err := v.StatPath("/etc/nginx/nginx.conf")
	if err != nil || st.Size != 19 || st.IsDir {
		t.Fatalf("Stat = %+v, %v", st, err)
	}
	// Removing a non-empty directory fails; empty succeeds.
	if err := v.Unlink("/etc/nginx"); err != vfscore.ErrNotEmpty {
		t.Errorf("unlink non-empty dir = %v, want ErrNotEmpty", err)
	}
	if err := v.Unlink("/etc/nginx/nginx.conf"); err != nil {
		t.Fatal(err)
	}
	if err := v.Unlink("/etc/nginx"); err != nil {
		t.Fatal(err)
	}
	// Opening a directory for writing fails.
	if _, err := v.Open("/etc", vfscore.ORdWr); err != vfscore.ErrIsDir {
		t.Errorf("open dir rw = %v, want ErrIsDir", err)
	}
}

func TestMountPoints(t *testing.T) {
	m := sim.NewMachine()
	v := vfscore.New(m)
	root, data := ramfs.New(), ramfs.New()
	if err := v.Mount("/", root); err != nil {
		t.Fatal(err)
	}
	if err := v.Mkdir("/data"); err != nil {
		t.Fatal(err)
	}
	if err := v.Mount("/data", data); err != nil {
		t.Fatal(err)
	}
	fd, err := v.Open("/data/file", vfscore.OCreate|vfscore.OWrOnly)
	if err != nil {
		t.Fatal(err)
	}
	v.Write(fd, []byte("in the data fs"))
	v.Close(fd)
	// The file lives in the mounted fs, not the root fs.
	if data.Used() == 0 {
		t.Error("mounted fs unused; file went to the wrong filesystem")
	}
	if root.Used() != 0 {
		t.Error("root fs has content; mount prefix not honored")
	}
	// Duplicate mount point rejected.
	if err := v.Mount("/data", ramfs.New()); err != vfscore.ErrExist {
		t.Errorf("dup mount = %v, want ErrExist", err)
	}
}

func TestPReadPWrite(t *testing.T) {
	v, _ := newVFS(t)
	fd, _ := v.Open("/f", vfscore.OCreate|vfscore.ORdWr)
	if _, err := v.PWrite(fd, []byte("0123456789"), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := v.PWrite(fd, []byte("AB"), 4); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 10)
	n, err := v.PRead(fd, buf, 0)
	if err != nil || string(buf[:n]) != "0123AB6789" {
		t.Fatalf("PRead = %q, %v", buf[:n], err)
	}
	// Offset not disturbed by positional I/O.
	n, _ = v.Read(fd, buf)
	if string(buf[:n]) != "0123AB6789" {
		t.Fatalf("sequential read after PRead = %q", buf[:n])
	}
}

func TestSeekWhence(t *testing.T) {
	v, _ := newVFS(t)
	fd, _ := v.Open("/f", vfscore.OCreate|vfscore.ORdWr)
	v.Write(fd, []byte("0123456789"))
	if off, _ := v.Seek(fd, -3, vfscore.SeekEnd); off != 7 {
		t.Fatalf("SeekEnd(-3) = %d", off)
	}
	if off, _ := v.Seek(fd, 1, vfscore.SeekCur); off != 8 {
		t.Fatalf("SeekCur(+1) = %d", off)
	}
	if _, err := v.Seek(fd, -100, vfscore.SeekSet); err != vfscore.ErrInvalid {
		t.Fatalf("negative seek = %v", err)
	}
	if _, err := v.Seek(fd, 0, 99); err != vfscore.ErrInvalid {
		t.Fatalf("bad whence = %v", err)
	}
}

func TestBadFD(t *testing.T) {
	v, _ := newVFS(t)
	if _, err := v.Read(42, make([]byte, 4)); err != vfscore.ErrBadFD {
		t.Errorf("Read(bad) = %v", err)
	}
	if err := v.Close(0); err != vfscore.ErrBadFD {
		t.Errorf("Close(stdin) = %v (stdio not in table)", err)
	}
	fd, _ := v.Open("/f", vfscore.OCreate|vfscore.ORdWr)
	v.Close(fd)
	if err := v.Close(fd); err != vfscore.ErrBadFD {
		t.Errorf("double close = %v", err)
	}
}

func TestFDReuse(t *testing.T) {
	v, _ := newVFS(t)
	fd1, _ := v.Open("/a", vfscore.OCreate|vfscore.ORdWr)
	fd2, _ := v.Open("/b", vfscore.OCreate|vfscore.ORdWr)
	v.Close(fd1)
	fd3, _ := v.Open("/c", vfscore.OCreate|vfscore.ORdWr)
	if fd3 != fd1 {
		t.Errorf("fd not reused: got %d, want %d", fd3, fd1)
	}
	if fd2 == fd3 {
		t.Error("distinct files share an fd")
	}
}

// TestPathNormalization property: normalized paths are idempotent, have
// no dot segments, and open/stat agree on them.
func TestPathNormalization(t *testing.T) {
	v, _ := newVFS(t)
	v.Mkdir("/a")
	v.Mkdir("/a/b")
	fd, _ := v.Open("/a/b/f", vfscore.OCreate|vfscore.OWrOnly)
	v.Write(fd, []byte("x"))
	v.Close(fd)
	for _, alias := range []string{
		"/a/b/f", "/a/./b/f", "/a/b/../b/f", "//a//b//f", "/x/../a/b/f",
	} {
		if st, err := v.StatPath(alias); err != nil || st.Size != 1 {
			t.Errorf("StatPath(%q) = %+v, %v", alias, st, err)
		}
	}
	if _, err := v.StatPath("relative/path"); err != vfscore.ErrInvalid {
		t.Errorf("relative path = %v, want ErrInvalid", err)
	}
	// ".." cannot escape the root.
	if st, err := v.StatPath("/../../a/b/f"); err != nil || st.Size != 1 {
		t.Errorf("escape attempt = %+v, %v", st, err)
	}
}

// TestVFSOpenCost verifies the calibrated Fig 22 costs: an open hit
// lands near 1600 cycles and a miss charges more than a hit.
func TestVFSOpenCost(t *testing.T) {
	v, m := newVFS(t)
	fd, _ := v.Open("/file", vfscore.OCreate|vfscore.OWrOnly)
	v.Close(fd)

	before := m.CPU.Cycles()
	fd, err := v.Open("/file", vfscore.ORdOnly)
	if err != nil {
		t.Fatal(err)
	}
	hit := m.CPU.Cycles() - before
	v.Close(fd)

	before = m.CPU.Cycles()
	if _, err := v.Open("/nope", vfscore.ORdOnly); err != vfscore.ErrNotExist {
		t.Fatal(err)
	}
	miss := m.CPU.Cycles() - before

	if hit < 1000 || hit > 2400 {
		t.Errorf("open hit = %d cycles, want ~1600 (Fig 22)", hit)
	}
	if miss <= hit {
		t.Errorf("open miss (%d) should cost more than hit (%d), Fig 22", miss, hit)
	}
}

// TestRandomTreeOps property: a random sequence of creates/removes
// mirrored against a Go map model never disagrees about existence.
func TestRandomTreeOps(t *testing.T) {
	f := func(ops []uint16) bool {
		v, _ := newVFS(t)
		model := map[string]bool{}
		names := []string{"/a", "/b", "/c", "/d", "/e"}
		for _, op := range ops {
			name := names[int(op)%len(names)]
			if op%2 == 0 {
				_, err := v.Open(name, vfscore.OCreate|vfscore.OWrOnly)
				created := err == nil
				if model[name] && !created {
					return false // existed; OCreate without EXCL opens fine
				}
				model[name] = true
			} else {
				err := v.Unlink(name)
				if model[name] != (err == nil) {
					return false
				}
				delete(model, name)
			}
			for _, n := range names {
				_, err := v.StatPath(n)
				if model[n] != (err == nil) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestOpenCleanPathAllocs: a path that is already normal is neither
// rebuilt nor split — opening it allocates the open file description
// and nothing else — while every other spelling resolves as before.
func TestOpenCleanPathAllocs(t *testing.T) {
	v, m := newVFS(t)
	v.Mkdir("/a")
	v.Mkdir("/a/b")
	fd, _ := v.Open("/a/b/c.html", vfscore.OCreate|vfscore.OWrOnly)
	v.Write(fd, []byte("page"))
	v.Close(fd)

	openClose := func(path string) func() {
		return func() {
			fd, err := v.Open(path, vfscore.ORdOnly)
			if err != nil {
				t.Fatalf("Open(%q) = %v", path, err)
			}
			v.Close(fd)
		}
	}
	if n := testing.AllocsPerRun(100, openClose("/a/b/c.html")); n > 1 {
		t.Errorf("Open+Close of a clean path allocates %v times, want the file alone", n)
	}
	before := m.CPU.Cycles()
	openClose("/a/b/c.html")()
	clean := m.CPU.Cycles() - before
	for _, alias := range []string{
		"//a/b/c.html", "/a/./b/c.html", "/a/b/../b/c.html", "/../a/b/c.html", "/a/b/c.html/", "/a/b/./c.html/.",
	} {
		before := m.CPU.Cycles()
		openClose(alias)()
		if got := m.CPU.Cycles() - before; got != clean {
			t.Errorf("Open(%q) costs %d cycles, the clean spelling %d", alias, got, clean)
		}
		if st, err := v.StatPath(alias); err != nil || st.Name != "c.html" || st.Size != 4 {
			t.Errorf("StatPath(%q) = %+v, %v", alias, st, err)
		}
	}
	for path, want := range map[string]string{"/": "/", "//": "/", "/.": "/", "/..": "/", "/a/": "a", "/a/b/..": "a"} {
		if st, err := v.StatPath(path); err != nil || !st.IsDir || st.Name != want {
			t.Errorf("StatPath(%q) = %+v, %v; want directory %q", path, st, err, want)
		}
	}
	for _, path := range []string{"", "a/b/c.html", "./a"} {
		if _, err := v.Open(path, vfscore.ORdOnly); err != vfscore.ErrInvalid {
			t.Errorf("Open(%q) = %v, want ErrInvalid", path, err)
		}
	}
}
