// Package sqldb is the repository's SQLite stand-in: a small SQL engine
// (tokenizer, parser, executor) over a B-tree row store whose row
// payloads live in a ukalloc arena. The paper's SQLite experiments
// (60k-insert runs, Fig 16/17; allocator sweeps) stress exactly this
// path: per-statement scratch allocations plus per-row payload
// allocations against the selected allocator backend.
package sqldb

import "fmt"

// btree is an in-memory B-tree keyed by int64 rowid. Order chosen so
// nodes fit a few cache lines; the structure is the classic Knuth
// B-tree with splits on the way down.
const btreeOrder = 64 // max children per interior node

type btreeNode struct {
	leaf     bool
	keys     []int64
	vals     []rowRef     // leaf only, parallel to keys
	children []*btreeNode // interior only, len(keys)+1
}

// rowRef locates an encoded row in the arena.
type rowRef struct {
	p tablePtr
	n int
}

// in returns the row's bytes within the arena memory mem, capacity
// capped at the row's end so that an overread panics.
func (r rowRef) in(mem []byte) []byte { return mem[r.p : int(r.p)+r.n : int(r.p)+r.n] }

// tablePtr aliases ukalloc.Ptr without importing it here (kept local to
// ease testing of the tree in isolation).
type tablePtr int

type btree struct {
	root  *btreeNode
	count int
}

func newBtree() *btree {
	return &btree{root: &btreeNode{leaf: true}}
}

// insert adds (key, ref). The caller rules duplicate keys out: a rowid
// is either one past maxKey or a primary key storeRow has looked up.
func (t *btree) insert(key int64, ref rowRef) {
	if full(t.root) {
		old := t.root
		t.root = &btreeNode{children: []*btreeNode{old}}
		t.splitChild(t.root, 0)
	}
	t.insertNonFull(t.root, key, ref)
	t.count++
}

func full(n *btreeNode) bool { return len(n.keys) >= btreeOrder-1 }

func (t *btree) splitChild(parent *btreeNode, i int) {
	child := parent.children[i]
	mid := len(child.keys) / 2
	midKey := child.keys[mid]

	right := &btreeNode{leaf: child.leaf}
	if child.leaf {
		// Leaf split: midKey stays in the right leaf (B+-tree style).
		right.keys = append(right.keys, child.keys[mid:]...)
		right.vals = append(right.vals, child.vals[mid:]...)
		child.keys = child.keys[:mid]
		child.vals = child.vals[:mid]
	} else {
		right.keys = append(right.keys, child.keys[mid+1:]...)
		right.children = append(right.children, child.children[mid+1:]...)
		child.keys = child.keys[:mid]
		child.children = child.children[:mid+1]
	}

	parent.keys = append(parent.keys, 0)
	copy(parent.keys[i+1:], parent.keys[i:])
	parent.keys[i] = midKey
	parent.children = append(parent.children, nil)
	copy(parent.children[i+2:], parent.children[i+1:])
	parent.children[i+1] = right
}

func (t *btree) insertNonFull(n *btreeNode, key int64, ref rowRef) {
	for !n.leaf {
		i := upperBound(n.keys, key)
		if full(n.children[i]) {
			t.splitChild(n, i)
			if key >= n.keys[i] {
				i++
			}
		}
		n = n.children[i]
	}
	i := upperBound(n.keys, key)
	n.keys = append(n.keys, 0)
	copy(n.keys[i+1:], n.keys[i:])
	n.keys[i] = key
	n.vals = append(n.vals, rowRef{})
	copy(n.vals[i+1:], n.vals[i:])
	n.vals[i] = ref
}

// upperBound returns the first index with keys[i] > key... for interior
// descent; for leaves it is the insertion point.
func upperBound(keys []int64, key int64) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if keys[mid] <= key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// get returns the ref for key.
func (t *btree) get(key int64) (rowRef, bool) {
	n := t.root
	for {
		i := upperBound(n.keys, key)
		if n.leaf {
			if i > 0 && n.keys[i-1] == key {
				return n.vals[i-1], true
			}
			return rowRef{}, false
		}
		n = n.children[i]
	}
}

// scan visits all rows in key order; fn returning false stops the scan.
func (t *btree) scan(fn func(key int64, ref rowRef) bool) { t.root.scan(fn) }

// scan visits the subtree's rows; interior keys are separators only
// (B+-style), rows live in leaves.
func (n *btreeNode) scan(fn func(key int64, ref rowRef) bool) bool {
	if n.leaf {
		for i, k := range n.keys {
			if !fn(k, n.vals[i]) {
				return false
			}
		}
		return true
	}
	for _, c := range n.children {
		if !c.scan(fn) {
			return false
		}
	}
	return true
}

// maxKey returns the largest key in the tree, 0 when it is empty (so
// the first rowid handed out is 1). remove leaves emptied leaves in
// place, so the rightmost leaf may hold nothing and the search backs up.
func (t *btree) maxKey() int64 {
	k, _ := t.root.maxKey()
	return k
}

func (n *btreeNode) maxKey() (int64, bool) {
	if n.leaf {
		if len(n.keys) == 0 {
			return 0, false
		}
		return n.keys[len(n.keys)-1], true
	}
	for i := len(n.children) - 1; i >= 0; i-- {
		if k, ok := n.children[i].maxKey(); ok {
			return k, true
		}
	}
	return 0, false
}

// remove deletes key from the tree (simplified: leaf removal without
// rebalancing — deletions are rare in the evaluated workloads and the
// tree stays valid, merely possibly under-full).
func (t *btree) remove(key int64) (rowRef, bool) {
	n := t.root
	for {
		i := upperBound(n.keys, key)
		if n.leaf {
			if i > 0 && n.keys[i-1] == key {
				ref := n.vals[i-1]
				n.keys = append(n.keys[:i-1], n.keys[i:]...)
				n.vals = append(n.vals[:i-1], n.vals[i:]...)
				t.count--
				return ref, true
			}
			return rowRef{}, false
		}
		n = n.children[i]
	}
}

// validate checks B-tree invariants (ordering, separator consistency);
// tests call it.
func (t *btree) validate() error {
	var last *int64
	ok := true
	t.scan(func(k int64, _ rowRef) bool {
		if last != nil && k <= *last {
			ok = false
			return false
		}
		v := k
		last = &v
		return true
	})
	if !ok {
		return fmt.Errorf("sqldb: btree keys out of order")
	}
	return nil
}
