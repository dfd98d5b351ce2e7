package sqldb

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"unikraft/internal/ukalloc"
)

// loadRow and match are the engine's former query path, kept as the
// reference the pushed-down one is compared against: decode every cell
// of a row, then test the decoded values.

func (db *DB) loadRow(t *table, ref rowRef) []Value {
	buf := ukalloc.Bytes(db.alloc, ukalloc.Ptr(ref.p), ref.n)
	out := make([]Value, len(t.cols))
	off := 0
	for i := range t.cols {
		notNull := buf[off] == 1
		off++
		if t.cols[i].Type == colInt {
			var u uint64
			for s := 0; s < 8; s++ {
				u |= uint64(buf[off+s]) << (8 * s)
			}
			off += 8
			out[i] = Value{IsNull: !notNull, Int: int64(u)}
		} else {
			n := int(buf[off]) | int(buf[off+1])<<8 | int(buf[off+2])<<16 | int(buf[off+3])<<24
			off += 4
			out[i] = Value{IsNull: !notNull, Text: string(buf[off : off+n])}
			off += n
		}
	}
	return out
}

func match(w where, row []Value) bool {
	if w.col < 0 {
		return true
	}
	a := row[w.col]
	b := w.val
	if a.IsNull || b.IsNull {
		return false
	}
	if a.Text != "" || b.Text != "" {
		return a.Text == b.Text
	}
	return a.Int == b.Int
}

// reference answers "which rows does w select" by materialising every
// row of the table, in rowid order.
func (db *DB) reference(t *table, w where) (keys []int64, rows [][]Value) {
	for n := t.rows.first(); n != nil; n = n.next {
		for i, ref := range n.vals {
			if row := db.loadRow(t, ref); match(w, row) {
				keys = append(keys, n.keys[i])
				rows = append(rows, row)
			}
		}
	}
	return keys, rows
}

// randomCase is one seeded schema and the literals its statements draw
// from: small domains, so duplicates, hits, empty strings and NULLs are
// all common.
type randomCase struct {
	rng  *rand.Rand
	cols []column
	pk   int
}

func (c *randomCase) create() string {
	defs := make([]string, len(c.cols))
	for i, cd := range c.cols {
		defs[i] = cd.Name + " " + []string{"INT", "TEXT"}[cd.Type]
		if i == c.pk {
			defs[i] = cd.Name + " INTEGER PRIMARY KEY"
		}
	}
	return "CREATE TABLE t (" + strings.Join(defs, ", ") + ")"
}

// value draws a literal for column col, as SQL text and as the Value it
// parses to.
func (c *randomCase) value(col int) (string, Value) {
	switch {
	case c.rng.Intn(5) == 0:
		return "NULL", Value{IsNull: true}
	case col == c.pk:
		n := int64(c.rng.Intn(60)) - 5
		return fmt.Sprint(n), Value{Int: n}
	case c.cols[col].Type == colInt:
		n := int64(c.rng.Intn(6)) - 1
		return fmt.Sprint(n), Value{Int: n}
	}
	s := []string{"", "a", "b", "ab", "it's", "a longer value, with punctuation (=;*)"}[c.rng.Intn(6)]
	return "'" + strings.ReplaceAll(s, "'", "''") + "'", Value{Text: s}
}

func (c *randomCase) where() (string, where) {
	if c.rng.Intn(4) == 0 {
		return "", where{col: -1}
	}
	col := c.rng.Intn(len(c.cols))
	text, v := c.value(col)
	return " WHERE " + c.cols[col].Name + " = " + text, where{col: col, val: v}
}

// TestPushdownMatchesReference runs seeded random schemas and
// statements and demands that every SELECT, COUNT and DELETE agree with
// the materialising reference.
func TestPushdownMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		c := &randomCase{rng: rand.New(rand.NewSource(seed)), pk: -1}
		for i, n := 0, 1+c.rng.Intn(4); i < n; i++ {
			c.cols = append(c.cols, column{Name: fmt.Sprintf("c%d", i), Type: colType(c.rng.Intn(2))})
		}
		if seed%2 == 0 { // every other schema makes its first INT column, if any, the key
			c.pk = slices.IndexFunc(c.cols, func(cd column) bool { return cd.Type == colInt })
		}
		db := newDB(t)
		mustExec(t, db, c.create())
		tab := db.tables["t"]
		if tab.pk != c.pk {
			t.Fatalf("seed %d: %s: pk = %d, want %d", seed, c.create(), tab.pk, c.pk)
		}

		for op := 0; op < 400; op++ {
			switch r := c.rng.Intn(10); {
			case r < 5: // INSERT
				texts := make([]string, len(c.cols))
				vals := make([]Value, len(c.cols))
				for i := range c.cols {
					texts[i], vals[i] = c.value(i)
				}
				stmt := "INSERT INTO t VALUES (" + strings.Join(texts, ", ") + ")"
				before := tab.rows.count
				dup := false
				if c.pk >= 0 && !vals[c.pk].IsNull {
					_, dup = tab.rows.get(vals[c.pk].Int)
				}
				_, err := db.Exec(stmt)
				if dup != errors.Is(err, ErrConstraint) || (!dup && err != nil) {
					t.Fatalf("seed %d: %s: err = %v, key present = %v", seed, stmt, err, dup)
				}
				if err != nil {
					if tab.rows.count != before {
						t.Fatalf("seed %d: %s: failed but stored a row", seed, stmt)
					}
					continue
				}
				// The stored row is the values given, the key standing in
				// for a NULL primary key.
				key := tab.rows.maxKey()
				if c.pk >= 0 {
					if vals[c.pk].IsNull {
						vals[c.pk] = Value{Int: key}
					}
					key = vals[c.pk].Int
				}
				ref, ok := tab.rows.get(key)
				if !ok || !reflect.DeepEqual(db.loadRow(tab, ref), vals) {
					t.Fatalf("seed %d: %s: stored %v under %d, want %v", seed, stmt, db.loadRow(tab, ref), key, vals)
				}

			case r < 8: // SELECT
				proj := make([]int, 1+c.rng.Intn(3))
				names := make([]string, len(proj))
				for i := range proj {
					proj[i] = c.rng.Intn(len(c.cols))
					names[i] = c.cols[proj[i]].Name
				}
				list := strings.Join(names, ", ")
				if c.rng.Intn(3) == 0 {
					list, proj, names = "*", proj[:0], names[:0]
					for i, cd := range c.cols {
						proj, names = append(proj, i), append(names, cd.Name)
					}
				}
				wtext, w := c.where()
				stmt := "SELECT " + list + " FROM t" + wtext
				_, rows := db.reference(tab, w)
				var want [][]Value
				for _, row := range rows {
					out := make([]Value, len(proj))
					for i, p := range proj {
						out[i] = row[p]
					}
					want = append(want, out)
				}
				got := mustExec(t, db, stmt)
				if !reflect.DeepEqual(got.Rows, want) || !reflect.DeepEqual(got.Columns, names) {
					t.Fatalf("seed %d: %s:\n got %v %v\nwant %v %v", seed, stmt, got.Columns, got.Rows, names, want)
				}

			case r < 9: // COUNT
				wtext, w := c.where()
				stmt := "SELECT COUNT(*) FROM t" + wtext
				keys, _ := db.reference(tab, w)
				if got := mustExec(t, db, stmt).Rows[0][0].Int; got != int64(len(keys)) {
					t.Fatalf("seed %d: %s = %d, reference %d", seed, stmt, got, len(keys))
				}

			default: // DELETE
				wtext, w := c.where()
				if w.col < 0 && c.rng.Intn(4) != 0 {
					continue // empty the table only now and then
				}
				stmt := "DELETE FROM t" + wtext
				keys, _ := db.reference(tab, w)
				before := tab.rows.count
				if got := mustExec(t, db, stmt).Affected; got != len(keys) || tab.rows.count != before-len(keys) {
					t.Fatalf("seed %d: %s: affected %d, %d rows left; reference %d of %d", seed, stmt, got, tab.rows.count, len(keys), before)
				}
				for _, k := range keys {
					if _, ok := tab.rows.get(k); ok {
						t.Fatalf("seed %d: %s: rowid %d survived", seed, stmt, k)
					}
				}
				if left, _ := db.reference(tab, w); len(left) != 0 {
					t.Fatalf("seed %d: %s: %d matching rows survived", seed, stmt, len(left))
				}
			}
			if err := tab.rows.validate(); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
	}
}

// matches is the engine's former WHERE test, kept as the reference the
// compiled leaf scan is held to: walk the row's cells to the column on
// every row, then compare the cell in place. NULL equals nothing.
func (t *table) matches(w where, row []byte) bool {
	if w.col < 0 {
		return true
	}
	if w.val.IsNull {
		return false
	}
	off := t.cell(row, w.col)
	if row[off] == 0 {
		return false
	}
	if t.cols[w.col].Type == colInt {
		return cellInt(row, off) == w.val.Int
	}
	return string(cellText(row, off)) == w.val.Text
}

// TestScanMatchesCellWalk holds each's selection to matches over every
// schema of one to four INT and TEXT columns, so the predicate's column
// sits at every position behind every mix of fixed and variable cells,
// with NULLs in every column and every literal the rows draw from.
func TestScanMatchesCellWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ints := []Value{{IsNull: true}, {Int: -1}, {Int: 0}, {Int: 3}}
	texts := []Value{{IsNull: true}, {Text: ""}, {Text: "a"}, {Text: "it's"}, {Text: "a longer value"}}
	for ncols := 1; ncols <= 4; ncols++ {
		for mask := 0; mask < 1<<ncols; mask++ {
			c := &randomCase{rng: rng, pk: -1}
			for i := 0; i < ncols; i++ {
				c.cols = append(c.cols, column{Name: fmt.Sprintf("c%d", i), Type: colType(mask >> i & 1)})
			}
			db := newDB(t)
			mustExec(t, db, c.create())
			tab := db.tables["t"]
			for r := 0; r < 150; r++ {
				row := make([]string, ncols)
				for i := range c.cols {
					row[i], _ = c.value(i)
				}
				mustExec(t, db, "INSERT INTO t VALUES ("+strings.Join(row, ", ")+")")
			}
			mem := db.alloc.Arena().Bytes()
			preds := []where{{col: -1}}
			for col, cd := range c.cols {
				lits := ints
				if cd.Type == colText {
					lits = texts
				}
				for _, v := range lits {
					preds = append(preds, where{col: col, val: v})
				}
			}
			for _, w := range preds {
				var got, want []int64
				db.each(tab, w, func(key int64, _ []byte) { got = append(got, key) })
				for n := tab.rows.first(); n != nil; n = n.next {
					for i, ref := range n.vals {
						if tab.matches(w, ref.in(mem)) {
							want = append(want, n.keys[i])
						}
					}
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%s with %+v: scan selects %v, cell walk %v", c.create(), w, got, want)
				}
			}
		}
	}
}

// TestBtreeAgainstSortedSlice drives the tree with random inserts and
// removes, and with sql-mixed's churn (delete anywhere, insert one past
// the top), against a sorted slice. After every operation get, maxKey
// and count agree with the slice, the tree validates, and the leaves
// number at most one more than the rows could fill at minKeys each.
func TestBtreeAgainstSortedSlice(t *testing.T) {
	for _, mode := range []string{"random", "right-end-churn", "left-end-drain"} {
		rng := rand.New(rand.NewSource(11))
		tree, keys, ops := newBtree(), []int64{}, 0
		check := func(op string, key int64) {
			t.Helper()
			i, present := slices.BinarySearch(keys, key)
			if ref, ok := tree.get(key); ok != present || (ok && ref.p != tablePtr(key)) {
				t.Fatalf("%s: after %s %d, get = %v, %v; oracle holds it: %v", mode, op, key, ref, ok, present)
			}
			if i < len(keys) {
				if _, ok := tree.get(keys[i]); !ok {
					t.Fatalf("%s: after %s %d, key %d lost", mode, op, key, keys[i])
				}
			}
			var top int64
			if len(keys) > 0 {
				top = keys[len(keys)-1]
			}
			if tree.maxKey() != top || tree.count != len(keys) {
				t.Fatalf("%s: after %s %d, maxKey %d count %d; oracle %d, %d", mode, op, key, tree.maxKey(), tree.count, top, len(keys))
			}
			if ops++; len(keys) < 1024 || ops%101 == 0 {
				if err := tree.validate(); err != nil {
					t.Fatalf("%s: after %s %d: %v", mode, op, key, err)
				}
			}
			leaves := 0
			for n := tree.first(); n != nil; n = n.next {
				leaves++
			}
			if limit := (len(keys)+minKeys-1)/minKeys + 1; leaves > limit {
				t.Fatalf("%s: %d leaves for %d rows, want at most %d", mode, leaves, len(keys), limit)
			}
		}
		insert := func(key int64) {
			i, dup := slices.BinarySearch(keys, key)
			if dup {
				return
			}
			tree.insert(key, rowRef{p: tablePtr(key)})
			keys = slices.Insert(keys, i, key)
			check("insert", key)
		}
		remove := func(key int64) {
			i, present := slices.BinarySearch(keys, key)
			ref, ok := tree.remove(key)
			if ok != present || (ok && ref.p != tablePtr(key)) {
				t.Fatalf("%s: remove %d = %v, %v; oracle holds it: %v", mode, key, ref, ok, present)
			}
			if present {
				keys = slices.Delete(keys, i, i+1)
			}
			check("remove", key)
		}

		switch mode {
		case "random":
			// Grow to three levels, shrink to nothing, grow again: every
			// level splits, borrows, merges and collapses.
			for _, phase := range []struct{ ops, insertPct int }{{16_000, 80}, {16_000, 15}, {6000, 70}} {
				for op := 0; op < phase.ops; op++ {
					key := int64(rng.Intn(40_000)) - 100
					if rng.Intn(100) < phase.insertPct {
						insert(key)
					} else if len(keys) > 0 && rng.Intn(4) != 0 {
						remove(keys[rng.Intn(len(keys))])
					} else {
						remove(key)
					}
				}
				if err := tree.validate(); err != nil {
					t.Fatalf("%s: end of phase: %v", mode, err)
				}
			}
		case "right-end-churn":
			for i := 0; i < 256; i++ {
				insert(tree.maxKey() + 1 + int64(rng.Intn(1000)))
			}
			for op := 0; op < 10_000; op++ {
				remove(keys[rng.Intn(len(keys))])
				insert(tree.maxKey() + 1 + int64(rng.Intn(1000)))
			}
		case "left-end-drain":
			// Ascending inserts leave every node half full, and removing
			// from the bottom then underflows each level's first child.
			for i := 0; i < 20_000; i++ {
				insert(tree.maxKey() + 1)
			}
			for len(keys) > 0 {
				remove(keys[0])
			}
		}
	}
}

// TestBtreeRemoveAllocs: borrowing and merging shift entries within the
// nodes' own arrays, so a remove allocates nothing.
func TestBtreeRemoveAllocs(t *testing.T) {
	tree := newBtree()
	const n = 8192
	for i := int64(0); i < n; i++ {
		tree.insert(i, rowRef{p: tablePtr(i)})
	}
	order := rand.New(rand.NewSource(3)).Perm(n)
	k := 0
	if got := testing.AllocsPerRun(n-1, func() {
		tree.remove(int64(order[k]))
		k++
	}); got != 0 {
		t.Fatalf("remove allocates %v", got)
	}
	if tree.count != 0 || tree.validate() != nil {
		t.Fatalf("count %d after removing every key: %v", tree.count, tree.validate())
	}
}
