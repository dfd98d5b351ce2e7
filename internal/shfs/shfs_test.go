package shfs

import (
	"fmt"
	"testing"
	"testing/quick"

	"unikraft/internal/sim"
)

func fixture(m *sim.Machine) *FS {
	fs := New(m, 1024)
	for i := 0; i < 100; i++ {
		fs.Add(fmt.Sprintf("/obj%03d.html", i), []byte(fmt.Sprintf("content of object %d", i)))
	}
	return fs
}

func TestOpenHitAndMiss(t *testing.T) {
	fs := fixture(nil)
	h, err := fs.Open("/obj042.html")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	n, err := fs.ReadAt(h, buf, 0)
	if err != nil || string(buf[:n]) != "content of object 42" {
		t.Fatalf("ReadAt = %q, %v", buf[:n], err)
	}
	if _, err := fs.Open("/absent.html"); err != ErrNotExist {
		t.Fatalf("miss = %v", err)
	}
}

func TestOpenCostMatchesFig22(t *testing.T) {
	m := sim.NewMachine()
	fs := fixture(m)
	before := m.CPU.Cycles()
	if _, err := fs.Open("/obj007.html"); err != nil {
		t.Fatal(err)
	}
	hit := m.CPU.Cycles() - before

	before = m.CPU.Cycles()
	fs.Open("/definitely-not-there")
	miss := m.CPU.Cycles() - before

	// Fig 22: SHFS 308 cycles (hit) / 291 (miss); allow probe-chain
	// variance but keep both far under the ~1600-cycle VFS open.
	if hit < 250 || hit > 600 {
		t.Errorf("hit = %d cycles, want ~308", hit)
	}
	if miss < 200 || miss > 500 {
		t.Errorf("miss = %d cycles, want ~291", miss)
	}
}

func TestCollisionChains(t *testing.T) {
	// A tiny table forces probe chains; all objects must stay reachable.
	fs := New(nil, 16)
	var added []string
	for i := 0; ; i++ {
		name := fmt.Sprintf("k%d", i)
		if err := fs.Add(name, []byte(name)); err != nil {
			if err != ErrFull {
				t.Fatal(err)
			}
			break
		}
		added = append(added, name)
	}
	if len(added) == 0 {
		t.Fatal("nothing added")
	}
	for _, name := range added {
		h, err := fs.Open(name)
		if err != nil {
			t.Fatalf("Open(%q) after collisions: %v", name, err)
		}
		buf := make([]byte, 32)
		n, _ := fs.ReadAt(h, buf, 0)
		if string(buf[:n]) != name {
			t.Fatalf("content mismatch for %q", name)
		}
	}
}

func TestDuplicateAdd(t *testing.T) {
	fs := New(nil, 64)
	if err := fs.Add("x", []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Add("x", []byte("2")); err != ErrExist {
		t.Fatalf("dup add = %v", err)
	}
}

func TestBadHandle(t *testing.T) {
	fs := New(nil, 64)
	if _, err := fs.ReadAt(Handle(5), make([]byte, 4), 0); err != ErrBadHandle {
		t.Fatalf("ReadAt empty slot = %v", err)
	}
	if _, err := fs.Size(Handle(-1)); err != ErrBadHandle {
		t.Fatalf("Size(-1) = %v", err)
	}
	if _, err := fs.Size(Handle(9999)); err != ErrBadHandle {
		t.Fatalf("Size(oob) = %v", err)
	}
}

func TestReadAtOffsets(t *testing.T) {
	fs := New(nil, 64)
	fs.Add("f", []byte("0123456789"))
	h, _ := fs.Open("f")
	buf := make([]byte, 4)
	if n, _ := fs.ReadAt(h, buf, 3); n != 4 || string(buf) != "3456" {
		t.Fatalf("offset read = %q", buf[:n])
	}
	if n, _ := fs.ReadAt(h, buf, 100); n != 0 {
		t.Fatalf("past-EOF read = %d bytes", n)
	}
}

// TestQuickAddOpen property: any set of distinct names added can all be
// opened, and names never added cannot.
func TestQuickAddOpen(t *testing.T) {
	f := func(keys []string) bool {
		fs := New(nil, 4096)
		seen := map[string]bool{}
		for _, k := range keys {
			if len(k) == 0 || len(k) > 128 || seen[k] {
				continue
			}
			if fs.Count() >= len(fs.buckets)*3/4-1 {
				break
			}
			if err := fs.Add(k, []byte(k)); err != nil {
				return false
			}
			seen[k] = true
		}
		for k := range seen {
			if _, err := fs.Open(k); err != nil {
				return false
			}
		}
		_, err := fs.Open("\x00never-a-key\x01")
		return err == ErrNotExist
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
