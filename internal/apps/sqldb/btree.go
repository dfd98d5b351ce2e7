// Package sqldb is the repository's SQLite stand-in: a small SQL engine
// (tokenizer, parser, executor) over a B-tree row store whose row
// payloads live in a ukalloc arena. The paper's SQLite experiments
// (60k-insert runs, Fig 16/17; allocator sweeps) stress exactly this
// path: per-statement scratch allocations plus per-row payload
// allocations against the selected allocator backend. On the host the
// engine hands results back in buffers its DB owns and refills, so a
// statement allocates nothing there beyond the B-tree nodes its table
// grows by.
package sqldb

import (
	"fmt"
	"slices"
)

// btree is an in-memory B+-tree keyed by int64 rowid: rows live in the
// leaves, which chain left to right, and interior keys are separators
// only. Order chosen so nodes fit a few cache lines; splits happen on
// the way down, and a remove that leaves a node under-full borrows from
// or merges with a sibling on the way back up, so every node but the
// root stays at least half full however many rows come and go.
const btreeOrder = 64 // max children per interior node

// minKeys is the fewest keys a node other than the root holds: splitting
// a full node leaves two halves this full, and remove restores it.
const minKeys = btreeOrder/2 - 1

type btreeNode struct {
	leaf     bool
	keys     []int64
	vals     []rowRef     // leaf only, parallel to keys
	children []*btreeNode // interior only, len(keys)+1
	next     *btreeNode   // leaf only: the next leaf in key order
}

// leafNode and innerNode are a node together with the arrays its
// slices view, so that a node is one allocation.
type leafNode struct {
	btreeNode
	keyMem [btreeOrder - 1]int64
	valMem [btreeOrder - 1]rowRef
}

type innerNode struct {
	btreeNode
	keyMem   [btreeOrder - 1]int64
	childMem [btreeOrder]*btreeNode
}

// newNode makes a node with room for as many entries as a node ever
// holds, so that inserts, borrows and merges shift entries in place and
// never grow a slice out of its node.
func newNode(leaf bool) *btreeNode {
	if leaf {
		l := new(leafNode)
		l.btreeNode = btreeNode{leaf: true, keys: l.keyMem[:0], vals: l.valMem[:0]}
		return &l.btreeNode
	}
	in := new(innerNode)
	in.btreeNode = btreeNode{keys: in.keyMem[:0], children: in.childMem[:0]}
	return &in.btreeNode
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
	return &btree{root: newNode(true)}
}

// insert adds (key, ref). The caller rules duplicate keys out: a rowid
// is either one past maxKey or a primary key storeRow has looked up.
func (t *btree) insert(key int64, ref rowRef) {
	if full(t.root) {
		old := t.root
		t.root = newNode(false)
		t.root.children = append(t.root.children, old)
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

	right := newNode(child.leaf)
	if child.leaf {
		// Leaf split: midKey stays in the right leaf (B+-tree style).
		right.keys = append(right.keys, child.keys[mid:]...)
		right.vals = append(right.vals, child.vals[mid:]...)
		child.keys = child.keys[:mid]
		child.vals = child.vals[:mid]
		right.next, child.next = child.next, right
	} else {
		right.keys = append(right.keys, child.keys[mid+1:]...)
		right.children = append(right.children, child.children[mid+1:]...)
		child.keys = child.keys[:mid]
		clear(child.children[mid+1:])
		child.children = child.children[:mid+1]
	}

	parent.keys = slices.Insert(parent.keys, i, midKey)
	parent.children = slices.Insert(parent.children, i+1, right)
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
	n.keys = slices.Insert(n.keys, i, key)
	n.vals = slices.Insert(n.vals, i, ref)
}

// upperBound returns the first index with keys[i] > key: the child to
// descend into, or a leaf's insertion point.
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

// first returns the leftmost leaf. Walking next from it visits every
// row in key order: the one leaf walk behind every scan and validate.
func (t *btree) first() *btreeNode {
	n := t.root
	for !n.leaf {
		n = n.children[0]
	}
	return n
}

// maxKey returns the largest key in the tree, 0 when it is empty (so
// the first rowid handed out is 1). Only the root can be empty, so the
// rightmost leaf holds the answer.
func (t *btree) maxKey() int64 {
	n := t.root
	for !n.leaf {
		n = n.children[len(n.children)-1]
	}
	if len(n.keys) == 0 {
		return 0
	}
	return n.keys[len(n.keys)-1]
}

// remove deletes key from the tree. A root left with one child hands
// the tree to that child.
func (t *btree) remove(key int64) (rowRef, bool) {
	ref, ok := t.root.remove(key)
	if !ok {
		return rowRef{}, false
	}
	t.count--
	if !t.root.leaf && len(t.root.keys) == 0 {
		t.root = t.root.children[0]
	}
	return ref, true
}

// remove deletes key from the subtree; a child it leaves under minKeys
// is refilled before the call returns.
func (n *btreeNode) remove(key int64) (rowRef, bool) {
	i := upperBound(n.keys, key)
	if n.leaf {
		if i == 0 || n.keys[i-1] != key {
			return rowRef{}, false
		}
		ref := n.vals[i-1]
		n.keys = slices.Delete(n.keys, i-1, i)
		n.vals = slices.Delete(n.vals, i-1, i)
		return ref, true
	}
	ref, ok := n.children[i].remove(key)
	if ok && len(n.children[i].keys) < minKeys {
		n.refill(i)
	}
	return ref, ok
}

// refill brings child i, one key short of minKeys, back up: it takes an
// entry from a sibling that can spare one, the left first, and merges
// with a sibling otherwise. n has at least two children: a non-root
// node holds minKeys keys, and a root with none has been collapsed.
func (n *btreeNode) refill(i int) {
	switch {
	case i > 0 && len(n.children[i-1].keys) > minKeys:
		n.shiftRight(i - 1)
	case i < len(n.keys) && len(n.children[i+1].keys) > minKeys:
		n.shiftLeft(i)
	case i > 0:
		n.merge(i - 1)
	default:
		n.merge(i)
	}
}

// shiftRight moves the last entry of child j to the front of child j+1.
func (n *btreeNode) shiftRight(j int) {
	l, r := n.children[j], n.children[j+1]
	last := len(l.keys) - 1
	if l.leaf {
		r.keys = slices.Insert(r.keys, 0, l.keys[last])
		r.vals = slices.Insert(r.vals, 0, l.vals[last])
		l.keys, l.vals = l.keys[:last], l.vals[:last]
		n.keys[j] = r.keys[0]
		return
	}
	// The separator comes down in front of r, l's last key goes up in
	// its place, and l's last child moves over with it.
	r.keys = slices.Insert(r.keys, 0, n.keys[j])
	r.children = slices.Insert(r.children, 0, l.children[last+1])
	n.keys[j] = l.keys[last]
	l.keys = l.keys[:last]
	l.children[last+1] = nil
	l.children = l.children[:last+1]
}

// shiftLeft moves the first entry of child j+1 to the end of child j.
func (n *btreeNode) shiftLeft(j int) {
	l, r := n.children[j], n.children[j+1]
	if l.leaf {
		l.keys = append(l.keys, r.keys[0])
		l.vals = append(l.vals, r.vals[0])
		r.keys = slices.Delete(r.keys, 0, 1)
		r.vals = slices.Delete(r.vals, 0, 1)
		n.keys[j] = r.keys[0]
		return
	}
	l.keys = append(l.keys, n.keys[j])
	l.children = append(l.children, r.children[0])
	n.keys[j] = r.keys[0]
	r.keys = slices.Delete(r.keys, 0, 1)
	r.children = slices.Delete(r.children, 0, 1)
}

// merge folds child j+1 into child j, separator included for an
// interior pair, and drops it from n. One side is a key short of
// minKeys and the other holds exactly minKeys, so the result fits.
func (n *btreeNode) merge(j int) {
	l, r := n.children[j], n.children[j+1]
	if l.leaf {
		l.keys = append(l.keys, r.keys...)
		l.vals = append(l.vals, r.vals...)
		l.next = r.next
	} else {
		l.keys = append(append(l.keys, n.keys[j]), r.keys...)
		l.children = append(l.children, r.children...)
	}
	n.keys = slices.Delete(n.keys, j, j+1)
	n.children = slices.Delete(n.children, j+1, j+2)
}

// validate checks the tree's invariants; tests and the benchmark call it.
//   - Keys ascend within every node, and every key of child i lies in
//     [keys[i-1], keys[i]) of its parent's separators.
//   - Every node but the root holds minKeys to btreeOrder-1 keys, so
//     none is empty; an interior node has one child more than keys.
//   - Every leaf sits at the same depth, and the leaf walk visits them
//     all in order and finds count rows.
func (t *btree) validate() error {
	var leaves []*btreeNode
	depth := -1
	var walk func(n *btreeNode, d int, lo, hi *int64) error
	walk = func(n *btreeNode, d int, lo, hi *int64) error {
		if n != t.root && (len(n.keys) < minKeys || len(n.keys) > btreeOrder-1) {
			return fmt.Errorf("sqldb: btree node at depth %d holds %d keys, want %d to %d", d, len(n.keys), minKeys, btreeOrder-1)
		}
		for i, k := range n.keys {
			if i > 0 && k <= n.keys[i-1] {
				return fmt.Errorf("sqldb: btree keys out of order at depth %d", d)
			}
			if (lo != nil && k < *lo) || (hi != nil && k >= *hi) {
				return fmt.Errorf("sqldb: btree key %d at depth %d lies outside its parent's separators", k, d)
			}
		}
		if n.leaf {
			if depth < 0 {
				depth = d
			}
			if d != depth || len(n.vals) != len(n.keys) || n.children != nil {
				return fmt.Errorf("sqldb: btree leaf at depth %d malformed (leaves at %d, %d keys, %d values)", d, depth, len(n.keys), len(n.vals))
			}
			leaves = append(leaves, n)
			return nil
		}
		if len(n.children) != len(n.keys)+1 || n.vals != nil {
			return fmt.Errorf("sqldb: btree interior node with %d keys has %d children", len(n.keys), len(n.children))
		}
		for i, c := range n.children {
			clo, chi := lo, hi
			if i > 0 {
				clo = &n.keys[i-1]
			}
			if i < len(n.keys) {
				chi = &n.keys[i]
			}
			if err := walk(c, d+1, clo, chi); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root, 0, nil, nil); err != nil {
		return err
	}
	rows, i := 0, 0
	for n := t.first(); n != nil; n = n.next {
		if i == len(leaves) || n != leaves[i] {
			return fmt.Errorf("sqldb: btree leaf chain leaves the tree's order at leaf %d", i)
		}
		rows += len(n.keys)
		i++
	}
	if i != len(leaves) || rows != t.count {
		return fmt.Errorf("sqldb: btree leaf walk found %d of %d leaves and %d rows, count %d", i, len(leaves), rows, t.count)
	}
	return nil
}
