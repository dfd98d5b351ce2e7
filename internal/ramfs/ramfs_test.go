package ramfs

import (
	"bytes"
	"math"
	"testing"

	"unikraft/internal/vfscore"
)

func TestTreeOperations(t *testing.T) {
	fs := New()
	root := fs.Root()
	dir, err := root.Create("etc", true)
	if err != nil {
		t.Fatal(err)
	}
	f, err := dir.Create("conf", false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("abc"), 0); err != nil {
		t.Fatal(err)
	}
	if fs.Used() != 3 {
		t.Fatalf("Used = %d", fs.Used())
	}
	got, err := root.Lookup("etc")
	if err != nil || !got.IsDir() {
		t.Fatal(err)
	}
	if _, err := dir.Create("conf", false); err != vfscore.ErrExist {
		t.Fatalf("dup create = %v", err)
	}
	if err := root.Remove("etc"); err != vfscore.ErrNotEmpty {
		t.Fatalf("remove non-empty = %v", err)
	}
	if err := dir.Remove("conf"); err != nil {
		t.Fatal(err)
	}
	if fs.Used() != 0 {
		t.Fatalf("Used after remove = %d", fs.Used())
	}
}

func TestSparseWrites(t *testing.T) {
	fs := New()
	f, _ := fs.Root().Create("f", false)
	if _, err := f.WriteAt([]byte("end"), 100); err != nil {
		t.Fatal(err)
	}
	if f.Size() != 103 {
		t.Fatalf("size = %d", f.Size())
	}
	buf := make([]byte, 103)
	n, _ := f.ReadAt(buf, 0)
	if n != 103 || !bytes.Equal(buf[100:], []byte("end")) {
		t.Fatalf("sparse read %d bytes", n)
	}
	for _, b := range buf[:100] {
		if b != 0 {
			t.Fatal("hole not zeroed")
		}
	}
	// An end past the largest offset is refused, not wrapped around.
	if _, err := f.WriteAt([]byte("wrap"), math.MaxInt64-1); err != vfscore.ErrInvalid {
		t.Fatalf("write ending past MaxInt64 = %v, want ErrInvalid", err)
	}
}

func TestQuota(t *testing.T) {
	fs := New()
	fs.MaxBytes = 100
	f, _ := fs.Root().Create("f", false)
	if _, err := f.WriteAt(make([]byte, 80), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(make([]byte, 80), 80); err != vfscore.ErrNoSpace {
		t.Fatalf("over-quota write = %v", err)
	}
	// used + growth past MaxInt64 must not wrap under the quota.
	g, _ := fs.Root().Create("g", false)
	if _, err := g.WriteAt(make([]byte, 4), math.MaxInt64-8); err != vfscore.ErrNoSpace {
		t.Fatalf("write growing a file by ~MaxInt64 = %v", err)
	}
	if err := f.Truncate(10); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(make([]byte, 80), 10); err != nil {
		t.Fatalf("write after truncate: %v", err)
	}
}

func TestTruncate(t *testing.T) {
	fs := New()
	f, _ := fs.Root().Create("f", false)
	f.WriteAt([]byte("0123456789"), 0)
	if err := f.Truncate(4); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	n, _ := f.ReadAt(buf, 0)
	if string(buf[:n]) != "0123" {
		t.Fatalf("after shrink: %q", buf[:n])
	}
	if err := f.Truncate(8); err != nil {
		t.Fatal(err)
	}
	if f.Size() != 8 {
		t.Fatalf("size = %d", f.Size())
	}
	if err := f.Truncate(-1); err != vfscore.ErrInvalid {
		t.Fatalf("negative truncate = %v", err)
	}
}

// TestLentViewNeverChanges: a view ReadSlice has lent keeps its bytes
// through every later write — overwrite, shrink, regrow into the old
// capacity — while the file itself shows the writes.
func TestLentViewNeverChanges(t *testing.T) {
	fs := New()
	f, _ := fs.Root().Create("f", false)
	f.WriteAt([]byte("0123456789"), 0)
	sr := f.(vfscore.SliceReader)
	for _, write := range []func(){
		func() { f.WriteAt([]byte("ab"), 2) },
		func() { f.Truncate(3) },
		func() { f.Truncate(10) },
		func() { f.WriteAt([]byte("xyz"), 8) },
	} {
		view, _ := sr.ReadSlice(0, 10)
		was := string(view)
		write()
		if string(view) != was {
			t.Fatalf("lent view %q became %q", was, view)
		}
	}
	buf := make([]byte, 16)
	if n, _ := f.ReadAt(buf, 0); string(buf[:n]) != "01a\x00\x00\x00\x00\x00xyz" {
		t.Fatalf("file reads %q after the writes", buf[:n])
	}
	if fs.Used() != 11 {
		t.Fatalf("Used = %d, want 11", fs.Used())
	}
}

// TestConcurrentReadSlice: clones read one template tree from their
// own goroutines, and each read sets the lend mark (run with -race).
func TestConcurrentReadSlice(t *testing.T) {
	fs := New()
	f, _ := fs.Root().Create("f", false)
	f.WriteAt(bytes.Repeat([]byte("page"), 1024), 0)
	sr := f.(vfscore.SliceReader)
	done := make(chan bool)
	for range 4 {
		go func() {
			ok := true
			for i := 0; i < 1000; i++ {
				view, _ := sr.ReadSlice(int64(i%1024)*4, 4)
				ok = ok && string(view) == "page"
			}
			done <- ok
		}()
	}
	for range 4 {
		if !<-done {
			t.Error("a concurrent reader saw other bytes")
		}
	}
}
