// Package shfs implements SHFS, the specialized hash-based filesystem
// ported from MiniCache [39] that the paper's §6.3 experiment hooks a
// web cache into *directly*, bypassing vfscore entirely. Where a VFS
// open() pays path normalization, per-component dentry walks, vnode
// allocation and locking (~1600 cycles), an SHFS open is a single hash
// probe into a flat bucket table (~300 cycles) — the 5-7x reduction of
// Figure 22.
//
// The design follows MiniCache's SHFS: a flat namespace (no directories),
// a fixed power-of-two bucket table addressed by name hash with linear
// probing, and content blobs referenced by table entries.
package shfs

import (
	"errors"

	"unikraft/internal/sim"
)

// Errors.
var (
	ErrNotExist  = errors.New("shfs: no such object")
	ErrExist     = errors.New("shfs: object exists")
	ErrFull      = errors.New("shfs: volume full")
	ErrBadHandle = errors.New("shfs: bad handle")
	ErrSealed    = errors.New("shfs: volume sealed")
)

// Handle references an open SHFS object.
type Handle int32

// entry is one bucket-table slot.
type entry struct {
	used bool
	hash uint64
	name string
	data []byte
}

// FS is an SHFS volume.
type FS struct {
	machine *sim.Machine
	buckets []entry
	mask    uint64
	count   int
	// sealed freezes the bucket table (see Seal/View): Add fails, and
	// read-only views sharing the table become safe to hand to
	// concurrently running clones.
	sealed bool
}

// New creates a volume with the given bucket count (rounded up to a
// power of two; default 1024).
func New(m *sim.Machine, buckets int) *FS {
	if buckets < 16 {
		buckets = 1024
	}
	n := 16
	for n < buckets {
		n <<= 1
	}
	return &FS{machine: m, buckets: make([]entry, n), mask: uint64(n - 1)}
}

// pay charges n units of cost row id to the volume's machine, if any.
func (fs *FS) pay(id sim.CostID, n uint64) {
	if fs.machine != nil {
		fs.machine.Pay(id, n)
	}
}

// hashName is FNV-1a 64.
func hashName(name string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h
}

// Add inserts an object at volume-population time (the MiniCache volume
// is built offline; Add is the builder). Sealed volumes refuse. The
// content is copied into the volume: sealed blobs — and every clone
// View's zero-copy ReadSlice of them — stay immutable even if the
// caller later reuses its buffer, matching how ramfs population copies
// through WriteAt.
func (fs *FS) Add(name string, data []byte) error {
	if fs.sealed {
		return ErrSealed
	}
	if fs.count >= len(fs.buckets)*3/4 {
		return ErrFull
	}
	data = append([]byte(nil), data...)
	h := hashName(name)
	i := h & fs.mask
	for fs.buckets[i].used {
		if fs.buckets[i].hash == h && fs.buckets[i].name == name {
			return ErrExist
		}
		i = (i + 1) & fs.mask
	}
	fs.buckets[i] = entry{used: true, hash: h, name: name, data: data}
	fs.count++
	return nil
}

// Open looks an object up by name: the specialized fast path. A hit
// charges ~308 cycles and a miss ~291 (one empty-bucket probe, no
// handle setup), matching Fig 22's SHFS bars.
func (fs *FS) Open(name string) (Handle, error) {
	fs.pay(sim.CostSHFSRequest, 1)
	fs.pay(sim.CostSHFSHash, 1)
	h := hashName(name)
	i := h & fs.mask
	probes := uint64(1)
	for fs.buckets[i].used {
		if fs.buckets[i].hash == h {
			fs.pay(sim.CostSHFSCompare, 1)
			if fs.buckets[i].name == name {
				fs.pay(sim.CostSHFSProbe, probes)
				return Handle(i), nil
			}
		}
		i = (i + 1) & fs.mask
		probes++
	}
	fs.pay(sim.CostSHFSProbe, probes)
	return -1, ErrNotExist
}

// Seal freezes the volume: no further Add calls succeed. A sealed
// volume's bucket table is immutable, which is what makes View safe.
func (fs *FS) Seal() { fs.sealed = true }

// Sealed reports whether the volume is frozen.
func (fs *FS) Sealed() bool { return fs.sealed }

// View returns a read-only handle on a sealed volume that charges its
// operations to m instead of the volume's own machine. Snapshot-forked
// clones each take a View: the bucket table and content blobs are
// shared (one copy of the site for the whole fleet, exactly like the
// COW-shared template pages), while every clone's opens and reads bill
// its own simulated CPU. Views of an unsealed volume are refused — a
// concurrent Add would race every clone.
func (fs *FS) View(m *sim.Machine) (*FS, error) {
	if !fs.sealed {
		return nil, ErrSealed
	}
	return &FS{machine: m, buckets: fs.buckets, mask: fs.mask, count: fs.count, sealed: true}, nil
}

// ReadSlice returns a zero-copy view of object content — the
// specialized sendfile path: no per-byte charge, just the handoff. The
// slice stays valid forever on a sealed volume (content blobs are
// immutable).
func (fs *FS) ReadSlice(h Handle, off int64, n int) ([]byte, error) {
	e, err := fs.entryOf(h)
	if err != nil {
		return nil, err
	}
	if off < 0 || off >= int64(len(e.data)) {
		return nil, nil
	}
	end := off + int64(n)
	if end > int64(len(e.data)) {
		end = int64(len(e.data))
	}
	fs.pay(sim.CostSHFSRead, 1)
	return e.data[off:end], nil
}

// ReadAt copies object content.
func (fs *FS) ReadAt(h Handle, p []byte, off int64) (int, error) {
	e, err := fs.entryOf(h)
	if err != nil {
		return 0, err
	}
	if off < 0 || off >= int64(len(e.data)) {
		return 0, nil
	}
	n := copy(p, e.data[off:])
	fs.pay(sim.CostSHFSRead, 1)
	fs.pay(sim.CostCopy, uint64(n))
	return n, nil
}

// Size reports an object's content length.
func (fs *FS) Size(h Handle) (int64, error) {
	e, err := fs.entryOf(h)
	if err != nil {
		return 0, err
	}
	return int64(len(e.data)), nil
}

// Close releases a handle. SHFS handles are bucket references, so this
// is free — mirroring MiniCache, where "closing" is dropping the hash
// table pointer.
func (fs *FS) Close(h Handle) error {
	_, err := fs.entryOf(h)
	return err
}

// Count reports stored objects.
func (fs *FS) Count() int { return fs.count }

func (fs *FS) entryOf(h Handle) (*entry, error) {
	if h < 0 || int(h) >= len(fs.buckets) || !fs.buckets[h].used {
		return nil, ErrBadHandle
	}
	return &fs.buckets[h], nil
}
