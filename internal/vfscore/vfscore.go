// Package vfscore is the virtual filesystem micro-library (scenario ➂ in
// the paper's Figure 4): mount table, path resolution, file-descriptor
// table, and the standard operation set that applications link against
// for file I/O. Concrete filesystems (ramfs, 9pfs, SHFS) plug in
// underneath via the FS/Node interfaces.
//
// Every operation charges the calibrated "standard path" cost that the
// paper's Figure 22 experiment measures against the specialized SHFS
// path: an open() through vfscore costs ~1600 cycles (path walk, vnode
// handling, fd allocation) where SHFS's hash lookup costs ~300.
//
// Beyond the standard operation set, the package implements the
// storage half of the zero-copy serving datapath: a bounded page cache
// whose fills are zero-copy views when the filesystem implements
// SliceReader, Sendfile (cached pages handed to the caller by
// reference — ~150 cycles per 4 KiB page against the ~476 a copying
// read charges), and CowFS, the copy-on-write view snapshot-forked
// clones mount over a shared template tree (reads shared, first write
// privatizes and charges the copy).
package vfscore

import (
	"errors"
	"strings"

	"unikraft/internal/sim"
)

// Filesystem errors (errno analogues).
var (
	ErrNotExist  = errors.New("vfscore: no such file or directory")
	ErrExist     = errors.New("vfscore: file exists")
	ErrIsDir     = errors.New("vfscore: is a directory")
	ErrNotDir    = errors.New("vfscore: not a directory")
	ErrBadFD     = errors.New("vfscore: bad file descriptor")
	ErrNotEmpty  = errors.New("vfscore: directory not empty")
	ErrInvalid   = errors.New("vfscore: invalid argument")
	ErrReadOnly  = errors.New("vfscore: read-only filesystem")
	ErrNoSpace   = errors.New("vfscore: no space left on device")
	ErrTooManyFD = errors.New("vfscore: file descriptor table full")
)

// Open flags (subset of POSIX).
const (
	ORdOnly = 0x0
	OWrOnly = 0x1
	ORdWr   = 0x2
	OCreate = 0x40
	OTrunc  = 0x200
	OAppend = 0x400
	OExcl   = 0x80
)

// Whence values for Seek.
const (
	SeekSet = 0
	SeekCur = 1
	SeekEnd = 2
)

// DirEnt is one directory entry.
type DirEnt struct {
	Name  string
	IsDir bool
}

// Stat describes a file.
type Stat struct {
	Name  string
	Size  int64
	IsDir bool
}

// Node is an inode-level object inside a filesystem.
type Node interface {
	IsDir() bool
	Size() int64

	// Directory operations.
	Lookup(name string) (Node, error)
	Create(name string, dir bool) (Node, error)
	Remove(name string) error
	ReadDir() ([]DirEnt, error)

	// File operations.
	ReadAt(p []byte, off int64) (int, error)
	WriteAt(p []byte, off int64) (int, error)
	Truncate(size int64) error
}

// FS is a mountable filesystem.
type FS interface {
	FSName() string
	Root() Node
	// LookupCost is the per-component cycle cost of this filesystem's
	// directory lookup, charged by the VFS path walk.
	LookupCost() uint64
}

// VFS operation costs (cycles), calibrated against Fig 22's Unikraft VFS
// numbers: a one-component open-hit lands near 1637 cycles and an open
// miss near 2219 (negative lookups pay the full directory scan plus
// error unwinding).
const (
	costFDAlloc      = 90
	costPathBase     = 260 // normalization + mount resolution
	costPerComponent = 240 // dentry handling per path element
	costVnode        = 420 // vnode alloc + init on open
	costLockUnlock   = 300 // vfs_lock/unlock pair per op
	costMissPenalty  = 580 // negative-lookup unwinding
	costRWBase       = 220 // per read/write call overhead
	costPerByteDen   = 16  // copy throughput, bytes/cycle
)

// file is one open file description.
type file struct {
	node   Node
	flags  int
	offset int64
	path   string
}

// mount is one mount-table entry.
type mount struct {
	prefix string // normalized, "/" or "/mnt/x"
	fs     FS
}

// VFS is the per-image virtual filesystem state.
type VFS struct {
	machine *sim.Machine
	mounts  []mount
	fds     []*file
	maxFDs  int
	// cache is the optional page cache behind Sendfile (see
	// EnablePageCache); scratch is the cacheless sendfile's read buffer.
	cache   *PageCache
	scratch []byte
}

// New creates a VFS on machine m with an empty mount table.
func New(m *sim.Machine) *VFS {
	return &VFS{machine: m, maxFDs: 1024, fds: make([]*file, 0, 64)}
}

// Mount attaches fs at path ("/" for the root filesystem). Longer
// prefixes shadow shorter ones, as in a real mount table.
func (v *VFS) Mount(path string, fs FS) error {
	p, err := normalize(path)
	if err != nil {
		return err
	}
	for _, m := range v.mounts {
		if m.prefix == p {
			return ErrExist
		}
	}
	v.mounts = append(v.mounts, mount{prefix: p, fs: fs})
	return nil
}

// resolveMount finds the longest-prefix mount for a normalized path and
// returns the fs plus the path remainder.
func (v *VFS) resolveMount(p string) (FS, string, error) {
	best := -1
	bestLen := -1
	for i, m := range v.mounts {
		if p == m.prefix || strings.HasPrefix(p, m.prefix+"/") || m.prefix == "/" {
			if len(m.prefix) > bestLen {
				best, bestLen = i, len(m.prefix)
			}
		}
	}
	if best < 0 {
		return nil, "", ErrNotExist
	}
	rest := strings.TrimPrefix(p, v.mounts[best].prefix)
	rest = strings.TrimPrefix(rest, "/")
	return v.mounts[best].fs, rest, nil
}

// normalize cleans a path: must be absolute; "." and ".." resolved;
// result has no trailing slash (except root). A path that is already
// clean — what servers open, request after request — comes back as it
// is, with nothing allocated.
func normalize(path string) (string, error) {
	if path == "" || path[0] != '/' {
		return "", ErrInvalid
	}
	if isNormal(path) {
		return path, nil
	}
	parts := strings.Split(path, "/")
	out := make([]string, 0, len(parts))
	for _, part := range parts {
		switch part {
		case "", ".":
		case "..":
			if len(out) > 0 {
				out = out[:len(out)-1]
			}
		default:
			out = append(out, part)
		}
	}
	if len(out) == 0 {
		return "/", nil
	}
	return "/" + strings.Join(out, "/"), nil
}

// isNormal reports whether an absolute path is what normalize would
// return for it: no empty, "." or ".." component, no trailing slash.
func isNormal(path string) bool {
	for rest := path[1:]; ; {
		comp, after, more := strings.Cut(rest, "/")
		if comp == "" || comp == "." || comp == ".." {
			return false
		}
		if !more {
			return true
		}
		rest = after
	}
}

// walk resolves a normalized relative path within fs, charging per
// component.
func (v *VFS) walk(fs FS, rel string) (Node, error) {
	node := fs.Root()
	for rel != "" {
		var comp string
		comp, rel, _ = strings.Cut(rel, "/")
		v.machine.Charge(costPerComponent + fs.LookupCost())
		next, err := node.Lookup(comp)
		if err != nil {
			return nil, err
		}
		node = next
	}
	return node, nil
}

// walkParent resolves everything but the last component.
func (v *VFS) walkParent(fs FS, rel string) (Node, string, error) {
	i := strings.LastIndexByte(rel, '/')
	if i < 0 {
		return fs.Root(), rel, nil
	}
	parent, err := v.walk(fs, rel[:i])
	if err != nil {
		return nil, "", err
	}
	return parent, rel[i+1:], nil
}

// Open opens path with flags and returns a file descriptor.
func (v *VFS) Open(path string, flags int) (int, error) {
	v.machine.Charge(costPathBase + costLockUnlock)
	p, err := normalize(path)
	if err != nil {
		return -1, err
	}
	fs, rel, err := v.resolveMount(p)
	if err != nil {
		return -1, err
	}
	node, err := v.walk(fs, rel)
	if err == ErrNotExist && flags&OCreate != 0 {
		parent, name, perr := v.walkParent(fs, rel)
		if perr != nil {
			v.machine.Charge(costMissPenalty)
			return -1, perr
		}
		if name == "" {
			return -1, ErrInvalid
		}
		node, err = parent.Create(name, false)
		if err != nil {
			return -1, err
		}
	} else if err != nil {
		v.machine.Charge(costMissPenalty)
		return -1, err
	} else if flags&OCreate != 0 && flags&OExcl != 0 {
		return -1, ErrExist
	}
	if node.IsDir() && flags&(OWrOnly|ORdWr) != 0 {
		return -1, ErrIsDir
	}
	if flags&OTrunc != 0 && !node.IsDir() {
		if err := node.Truncate(0); err != nil {
			return -1, err
		}
		v.invalidateCache(node)
	}
	v.machine.Charge(costVnode + costFDAlloc)
	f := &file{node: node, flags: flags, path: p}
	if flags&OAppend != 0 {
		f.offset = node.Size()
	}
	return v.installFD(f)
}

func (v *VFS) installFD(f *file) (int, error) {
	for i, slot := range v.fds {
		if slot == nil {
			v.fds[i] = f
			return i + 3, nil // 0,1,2 reserved for stdio
		}
	}
	if len(v.fds) >= v.maxFDs {
		return -1, ErrTooManyFD
	}
	v.fds = append(v.fds, f)
	return len(v.fds) - 1 + 3, nil
}

func (v *VFS) lookupFD(fd int) (*file, error) {
	i := fd - 3
	if i < 0 || i >= len(v.fds) || v.fds[i] == nil {
		return nil, ErrBadFD
	}
	return v.fds[i], nil
}

// Close releases a descriptor.
func (v *VFS) Close(fd int) error {
	i := fd - 3
	if i < 0 || i >= len(v.fds) || v.fds[i] == nil {
		return ErrBadFD
	}
	v.machine.Charge(costFDAlloc)
	v.fds[i] = nil
	return nil
}

// Read reads from the current offset.
func (v *VFS) Read(fd int, p []byte) (int, error) {
	f, err := v.lookupFD(fd)
	if err != nil {
		return 0, err
	}
	if f.node.IsDir() {
		return 0, ErrIsDir
	}
	v.machine.Charge(costRWBase + uint64(len(p))/costPerByteDen)
	n, err := f.node.ReadAt(p, f.offset)
	f.offset += int64(n)
	return n, err
}

// Write writes at the current offset.
func (v *VFS) Write(fd int, p []byte) (int, error) {
	f, err := v.lookupFD(fd)
	if err != nil {
		return 0, err
	}
	if f.flags&(OWrOnly|ORdWr) == 0 {
		return 0, ErrInvalid
	}
	v.machine.Charge(costRWBase + uint64(len(p))/costPerByteDen)
	if f.flags&OAppend != 0 {
		f.offset = f.node.Size()
	}
	n, err := f.node.WriteAt(p, f.offset)
	f.offset += int64(n)
	if n > 0 {
		v.invalidateCache(f.node)
	}
	return n, err
}

// PRead / PWrite are positional variants (no offset update).
func (v *VFS) PRead(fd int, p []byte, off int64) (int, error) {
	f, err := v.lookupFD(fd)
	if err != nil {
		return 0, err
	}
	v.machine.Charge(costRWBase + uint64(len(p))/costPerByteDen)
	return f.node.ReadAt(p, off)
}

// PWrite writes at an explicit offset.
func (v *VFS) PWrite(fd int, p []byte, off int64) (int, error) {
	f, err := v.lookupFD(fd)
	if err != nil {
		return 0, err
	}
	if f.flags&(OWrOnly|ORdWr) == 0 {
		return 0, ErrInvalid
	}
	v.machine.Charge(costRWBase + uint64(len(p))/costPerByteDen)
	n, err := f.node.WriteAt(p, off)
	if n > 0 {
		v.invalidateCache(f.node)
	}
	return n, err
}

// Seek repositions the offset.
func (v *VFS) Seek(fd int, off int64, whence int) (int64, error) {
	f, err := v.lookupFD(fd)
	if err != nil {
		return 0, err
	}
	var base int64
	switch whence {
	case SeekSet:
		base = 0
	case SeekCur:
		base = f.offset
	case SeekEnd:
		base = f.node.Size()
	default:
		return 0, ErrInvalid
	}
	if base+off < 0 {
		return 0, ErrInvalid
	}
	f.offset = base + off
	return f.offset, nil
}

// StatPath stats by path.
func (v *VFS) StatPath(path string) (Stat, error) {
	v.machine.Charge(costPathBase)
	p, err := normalize(path)
	if err != nil {
		return Stat{}, err
	}
	fs, rel, err := v.resolveMount(p)
	if err != nil {
		return Stat{}, err
	}
	node, err := v.walk(fs, rel)
	if err != nil {
		v.machine.Charge(costMissPenalty)
		return Stat{}, err
	}
	name := p
	if i := strings.LastIndexByte(p, '/'); i >= 0 && p != "/" {
		name = p[i+1:]
	}
	return Stat{Name: name, Size: node.Size(), IsDir: node.IsDir()}, nil
}

// StatFD stats an open descriptor.
func (v *VFS) StatFD(fd int) (Stat, error) {
	f, err := v.lookupFD(fd)
	if err != nil {
		return Stat{}, err
	}
	name := f.path
	if i := strings.LastIndexByte(f.path, '/'); i >= 0 && f.path != "/" {
		name = f.path[i+1:]
	}
	return Stat{Name: name, Size: f.node.Size(), IsDir: f.node.IsDir()}, nil
}

// Mkdir creates a directory.
func (v *VFS) Mkdir(path string) error {
	v.machine.Charge(costPathBase + costLockUnlock)
	p, err := normalize(path)
	if err != nil {
		return err
	}
	fs, rel, err := v.resolveMount(p)
	if err != nil {
		return err
	}
	if rel == "" {
		return ErrExist
	}
	parent, name, err := v.walkParent(fs, rel)
	if err != nil {
		return err
	}
	_, err = parent.Create(name, true)
	return err
}

// Unlink removes a file or empty directory.
func (v *VFS) Unlink(path string) error {
	v.machine.Charge(costPathBase + costLockUnlock)
	p, err := normalize(path)
	if err != nil {
		return err
	}
	fs, rel, err := v.resolveMount(p)
	if err != nil {
		return err
	}
	if rel == "" {
		return ErrInvalid // cannot unlink a mount root
	}
	parent, name, err := v.walkParent(fs, rel)
	if err != nil {
		return err
	}
	return parent.Remove(name)
}

// ReadDir lists a directory by path.
func (v *VFS) ReadDir(path string) ([]DirEnt, error) {
	v.machine.Charge(costPathBase)
	p, err := normalize(path)
	if err != nil {
		return nil, err
	}
	fs, rel, err := v.resolveMount(p)
	if err != nil {
		return nil, err
	}
	node, err := v.walk(fs, rel)
	if err != nil {
		return nil, err
	}
	return node.ReadDir()
}

// OpenFDs counts live descriptors (tests, leak checks).
func (v *VFS) OpenFDs() int {
	n := 0
	for _, f := range v.fds {
		if f != nil {
			n++
		}
	}
	return n
}

// SetMaxFDs bounds the descriptor table (default 1024) — tests use it
// to exercise ErrTooManyFD without opening a thousand files.
func (v *VFS) SetMaxFDs(n int) {
	if n > 0 {
		v.maxFDs = n
	}
}

// Reset closes every open descriptor — the VFS half of recycling an
// instance (ukboot's VM.Reset). The mount table and page cache survive,
// like a kernel's across process churn.
func (v *VFS) Reset() {
	v.fds = v.fds[:0]
}
