package vfscore

// CowFS is the copy-on-write filesystem view snapshot-forked clones
// mount: reads pass straight through to the shared, read-only base
// filesystem (the template's populated ramfs/9pfs tree), while the
// first write to any file privatizes it into clone-local storage — the
// node-granularity analog of the page-table COW in ukboot (a write
// fault copies the data and redirects the clone's mapping; siblings
// and the template never observe it). Because clean CowFS nodes expose
// the base node's zero-copy ReadSlice views, a fleet of clones serving
// the same site shares one copy of the file bytes — and one source for
// their page caches — until somebody writes.

import (
	"slices"
	"sort"

	"unikraft/internal/sim"
)

// CowFS wraps a base FS with clone-private copy-on-write state.
type CowFS struct {
	base FS
	// nodes memoizes wrappers so one base node maps to one cow node —
	// page-cache keys and fd-table aliasing stay stable.
	nodes map[Node]*cowNode
	root  *cowNode
	// Pay, when set, receives the cost of COW privatization copies
	// (the clone machine's write faults at file granularity).
	Pay func(id sim.CostID, n uint64)

	// Privatized counts copy-up events (tests, experiments).
	Privatized int
}

// NewCOW builds a copy-on-write view over base. The base filesystem
// must not be mutated directly afterwards (clones only reach it through
// the view).
func NewCOW(base FS) *CowFS {
	fs := &CowFS{base: base, nodes: map[Node]*cowNode{}}
	fs.root = fs.wrap(base.Root())
	return fs
}

// FSName implements FS.
func (fs *CowFS) FSName() string { return "cow-" + fs.base.FSName() }

// Root implements FS.
func (fs *CowFS) Root() Node { return fs.root }

// LookupCost implements FS: the clean path is the base filesystem's
// lookup plus one overlay probe.
func (fs *CowFS) LookupCost() uint64 {
	return fs.base.LookupCost() + sim.Cycles(sim.CostCowLookup, 1)
}

// wrap memoizes the cow wrapper for a base node.
func (fs *CowFS) wrap(base Node) *cowNode {
	if n, ok := fs.nodes[base]; ok {
		return n
	}
	n := &cowNode{fs: fs, base: base, dir: base.IsDir()}
	fs.nodes[base] = n
	return n
}

// copyUp reports a privatization copy to the clone's machine.
func (fs *CowFS) copyUp(bytes int) {
	fs.Privatized++
	if fs.Pay != nil {
		fs.Pay(sim.CostCowCopyUp, 1)
		fs.Pay(sim.CostCopy, uint64(bytes))
	}
}

// cowNode is one node of the view: a clean delegate to the shared base
// node, or (after privatization/creation) clone-private state.
type cowNode struct {
	fs   *CowFS
	base Node // nil for nodes created inside the clone
	dir  bool

	// dirty means data holds the private content (files only). lent
	// is set once ReadSlice has handed out a view of data, which the
	// next write then leaves alone by continuing on a copy; a CowFS
	// belongs to one clone, so a plain bool does.
	dirty bool
	lent  bool
	data  []byte

	// children/removed overlay the base directory entries: private
	// creations and whiteouts. nil until first mutation.
	children map[string]*cowNode
	removed  map[string]bool
}

// IsDir implements Node.
func (n *cowNode) IsDir() bool { return n.dir }

// Size implements Node.
func (n *cowNode) Size() int64 {
	if n.dir {
		ents, _ := n.ReadDir()
		return int64(len(ents))
	}
	if n.dirty || n.base == nil {
		return int64(len(n.data))
	}
	return n.base.Size()
}

// Lookup implements Node: private entries and whiteouts shadow the
// base directory.
func (n *cowNode) Lookup(name string) (Node, error) {
	if !n.dir {
		return nil, ErrNotDir
	}
	if n.removed[name] {
		return nil, ErrNotExist
	}
	if child, ok := n.children[name]; ok {
		return child, nil
	}
	if n.base == nil {
		return nil, ErrNotExist
	}
	child, err := n.base.Lookup(name)
	if err != nil {
		return nil, err
	}
	return n.fs.wrap(child), nil
}

// Create implements Node: new entries are clone-private.
func (n *cowNode) Create(name string, dir bool) (Node, error) {
	if !n.dir {
		return nil, ErrNotDir
	}
	if name == "" {
		return nil, ErrInvalid
	}
	if _, err := n.Lookup(name); err == nil {
		return nil, ErrExist
	}
	child := &cowNode{fs: n.fs, dir: dir}
	if n.children == nil {
		n.children = map[string]*cowNode{}
	}
	n.children[name] = child
	delete(n.removed, name)
	return child, nil
}

// Remove implements Node: base entries are whiteout-ed, private ones
// dropped.
func (n *cowNode) Remove(name string) error {
	if !n.dir {
		return ErrNotDir
	}
	child, err := n.Lookup(name)
	if err != nil {
		return err
	}
	if child.IsDir() {
		if ents, _ := child.ReadDir(); len(ents) > 0 {
			return ErrNotEmpty
		}
	}
	delete(n.children, name)
	// Whiteout the name whenever the base still has an entry underneath
	// — including when a private child was shadowing it (created after
	// an earlier whiteout): dropping only the shadow would resurrect
	// the base file the clone had deleted.
	if n.base != nil {
		if _, err := n.base.Lookup(name); err == nil {
			if n.removed == nil {
				n.removed = map[string]bool{}
			}
			n.removed[name] = true
		}
	}
	return nil
}

// ReadDir implements Node, merging base entries (minus whiteouts) with
// private ones.
func (n *cowNode) ReadDir() ([]DirEnt, error) {
	if !n.dir {
		return nil, ErrNotDir
	}
	var out []DirEnt
	seen := map[string]bool{}
	if n.base != nil {
		ents, err := n.base.ReadDir()
		if err != nil {
			return nil, err
		}
		for _, e := range ents {
			if n.removed[e.Name] {
				continue
			}
			if _, shadowed := n.children[e.Name]; shadowed {
				continue
			}
			out = append(out, e)
			seen[e.Name] = true
		}
	}
	for name, child := range n.children {
		if !seen[name] {
			out = append(out, DirEnt{Name: name, IsDir: child.dir})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// ReadAt implements Node.
func (n *cowNode) ReadAt(p []byte, off int64) (int, error) {
	if n.dir {
		return 0, ErrIsDir
	}
	if n.dirty || n.base == nil {
		if off < 0 {
			return 0, ErrInvalid
		}
		if off >= int64(len(n.data)) {
			return 0, nil
		}
		return copy(p, n.data[off:]), nil
	}
	return n.base.ReadAt(p, off)
}

// ReadSlice implements SliceReader: clean nodes expose the shared base
// view (zero-copy sharing across clones); privatized nodes expose their
// own data, which is copied before the next write.
func (n *cowNode) ReadSlice(off int64, ln int) ([]byte, bool) {
	if n.dir || off < 0 {
		return nil, false
	}
	if n.dirty || n.base == nil {
		if off >= int64(len(n.data)) {
			return nil, false
		}
		end := off + int64(ln)
		if end > int64(len(n.data)) {
			end = int64(len(n.data))
		}
		n.lent = true
		return n.data[off:end], true
	}
	if sr, ok := n.base.(SliceReader); ok {
		return sr.ReadSlice(off, ln)
	}
	return nil, false
}

// privatize readies the node for a write. The first is the COW fault:
// copy the base content into clone-private storage, charging the copy
// to the clone. After a view of private data has been lent, the data
// is copied again, uncharged — a host-side copy the model does not see.
func (n *cowNode) privatize() error {
	if n.lent {
		n.data = slices.Clone(n.data)
		n.lent = false
	}
	if n.dirty || n.base == nil {
		return nil
	}
	size := n.base.Size()
	n.data = make([]byte, size)
	if size > 0 {
		if _, err := n.base.ReadAt(n.data, 0); err != nil {
			n.data = nil
			return err
		}
	}
	n.dirty = true
	n.fs.copyUp(int(size))
	return nil
}

// WriteAt implements Node, privatizing on first write.
func (n *cowNode) WriteAt(p []byte, off int64) (int, error) {
	if n.dir {
		return 0, ErrIsDir
	}
	if off < 0 {
		return 0, ErrInvalid
	}
	if err := n.privatize(); err != nil {
		return 0, err
	}
	end := off + int64(len(p))
	if grow := end - int64(len(n.data)); grow > 0 {
		n.data = append(n.data, make([]byte, grow)...)
	}
	copy(n.data[off:end], p)
	return len(p), nil
}

// Truncate implements Node, privatizing first.
func (n *cowNode) Truncate(size int64) error {
	if n.dir {
		return ErrIsDir
	}
	if size < 0 {
		return ErrInvalid
	}
	if err := n.privatize(); err != nil {
		return err
	}
	switch cur := int64(len(n.data)); {
	case size < cur:
		n.data = n.data[:size]
	case size > cur:
		n.data = append(n.data, make([]byte, size-cur)...)
	}
	return nil
}
