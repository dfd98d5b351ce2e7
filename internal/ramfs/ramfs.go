// Package ramfs is the in-memory filesystem Unikraft guests include when
// they do not need persistent storage (§5.2: "Typically, Unikraft guests
// include a RAM filesystem"). It implements the vfscore FS/Node
// interfaces with a plain directory tree; it also serves as the backing
// export for the in-process 9pfs host server and as the template tree
// snapshot-forked clones share through vfscore's CowFS.
//
// The only cost ramfs itself contributes is its per-component lookup
// (a map probe, charged by the vfscore path walk via LookupCost); node
// reads and writes are priced by the VFS's per-byte copy charges, and
// ReadSlice exposes zero-copy views so the page cache can share file
// bytes without any copy at all.
package ramfs

import (
	"sort"

	"unikraft/internal/vfscore"
)

// lookupCost is ramfs's per-component directory lookup (a map probe).
const lookupCost = 140

// FS is an in-memory filesystem.
type FS struct {
	root *node
	// MaxBytes bounds total file content (0 = unlimited); writes beyond
	// it return ErrNoSpace, exercising error paths in tests.
	MaxBytes int64
	used     int64
}

// New creates an empty ramfs.
func New() *FS {
	fs := &FS{}
	fs.root = &node{fs: fs, dir: true, children: map[string]*node{}}
	return fs
}

// FSName implements vfscore.FS.
func (fs *FS) FSName() string { return "ramfs" }

// Root implements vfscore.FS.
func (fs *FS) Root() vfscore.Node { return fs.root }

// LookupCost implements vfscore.FS.
func (fs *FS) LookupCost() uint64 { return lookupCost }

// Used reports total content bytes stored.
func (fs *FS) Used() int64 { return fs.used }

// node is a ramfs inode.
type node struct {
	fs       *FS
	dir      bool
	data     []byte
	children map[string]*node
}

// IsDir implements vfscore.Node.
func (n *node) IsDir() bool { return n.dir }

// Size implements vfscore.Node.
func (n *node) Size() int64 {
	if n.dir {
		return int64(len(n.children))
	}
	return int64(len(n.data))
}

// Lookup implements vfscore.Node.
func (n *node) Lookup(name string) (vfscore.Node, error) {
	if !n.dir {
		return nil, vfscore.ErrNotDir
	}
	child, ok := n.children[name]
	if !ok {
		return nil, vfscore.ErrNotExist
	}
	return child, nil
}

// Create implements vfscore.Node.
func (n *node) Create(name string, dir bool) (vfscore.Node, error) {
	if !n.dir {
		return nil, vfscore.ErrNotDir
	}
	if name == "" {
		return nil, vfscore.ErrInvalid
	}
	if _, exists := n.children[name]; exists {
		return nil, vfscore.ErrExist
	}
	child := &node{fs: n.fs, dir: dir}
	if dir {
		child.children = map[string]*node{}
	}
	n.children[name] = child
	return child, nil
}

// Remove implements vfscore.Node.
func (n *node) Remove(name string) error {
	if !n.dir {
		return vfscore.ErrNotDir
	}
	child, ok := n.children[name]
	if !ok {
		return vfscore.ErrNotExist
	}
	if child.dir && len(child.children) > 0 {
		return vfscore.ErrNotEmpty
	}
	n.fs.used -= int64(len(child.data))
	delete(n.children, name)
	return nil
}

// ReadDir implements vfscore.Node.
func (n *node) ReadDir() ([]vfscore.DirEnt, error) {
	if !n.dir {
		return nil, vfscore.ErrNotDir
	}
	out := make([]vfscore.DirEnt, 0, len(n.children))
	for name, child := range n.children {
		out = append(out, vfscore.DirEnt{Name: name, IsDir: child.dir})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// ReadSlice implements vfscore.SliceReader: a zero-copy view of the
// file's bytes, valid until the next write (the VFS page cache
// invalidates on write, so a cached view can never dangle). This is
// what lets the sendfile path — and every snapshot-forked clone reading
// through a CowFS over this tree — serve content without duplicating
// it.
func (n *node) ReadSlice(off int64, ln int) ([]byte, bool) {
	if n.dir || off < 0 || off >= int64(len(n.data)) {
		return nil, false
	}
	end := off + int64(ln)
	if end > int64(len(n.data)) {
		end = int64(len(n.data))
	}
	return n.data[off:end], true
}

// ReadAt implements vfscore.Node.
func (n *node) ReadAt(p []byte, off int64) (int, error) {
	if n.dir {
		return 0, vfscore.ErrIsDir
	}
	if off < 0 {
		return 0, vfscore.ErrInvalid
	}
	if off >= int64(len(n.data)) {
		return 0, nil // EOF convention: 0 bytes, nil error
	}
	return copy(p, n.data[off:]), nil
}

// WriteAt implements vfscore.Node.
func (n *node) WriteAt(p []byte, off int64) (int, error) {
	if n.dir {
		return 0, vfscore.ErrIsDir
	}
	if off < 0 {
		return 0, vfscore.ErrInvalid
	}
	end := off + int64(len(p))
	if end < off {
		return 0, vfscore.ErrInvalid // off + len(p) overflows
	}
	grow := end - int64(len(n.data))
	if grow > 0 {
		// Compared this way round, a huge grow cannot wrap the sum.
		if n.fs.MaxBytes > 0 && grow > n.fs.MaxBytes-n.fs.used {
			return 0, vfscore.ErrNoSpace
		}
		n.data = append(n.data, make([]byte, grow)...)
		n.fs.used += grow
	}
	copy(n.data[off:end], p)
	return len(p), nil
}

// Truncate implements vfscore.Node.
func (n *node) Truncate(size int64) error {
	if n.dir {
		return vfscore.ErrIsDir
	}
	if size < 0 {
		return vfscore.ErrInvalid
	}
	cur := int64(len(n.data))
	switch {
	case size < cur:
		n.fs.used -= cur - size
		n.data = n.data[:size]
	case size > cur:
		if n.fs.MaxBytes > 0 && n.fs.used+size-cur > n.fs.MaxBytes {
			return vfscore.ErrNoSpace
		}
		n.fs.used += size - cur
		n.data = append(n.data, make([]byte, size-cur)...)
	}
	return nil
}
