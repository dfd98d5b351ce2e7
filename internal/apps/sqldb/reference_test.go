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
		if t.cols[i].Type == ColInt {
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
	t.rows.scan(func(key int64, ref rowRef) bool {
		if row := db.loadRow(t, ref); match(w, row) {
			keys = append(keys, key)
			rows = append(rows, row)
		}
		return true
	})
	return keys, rows
}

// randomCase is one seeded schema and the literals its statements draw
// from: small domains, so duplicates, hits, empty strings and NULLs are
// all common.
type randomCase struct {
	rng  *rand.Rand
	cols []Column
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
	case c.cols[col].Type == ColInt:
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
			c.cols = append(c.cols, Column{Name: fmt.Sprintf("c%d", i), Type: ColType(c.rng.Intn(2))})
		}
		if seed%2 == 0 { // every other schema makes its first INT column, if any, the key
			c.pk = slices.IndexFunc(c.cols, func(cd Column) bool { return cd.Type == ColInt })
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
