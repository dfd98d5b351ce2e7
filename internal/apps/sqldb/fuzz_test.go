package sqldb

import (
	"strings"
	"testing"
)

// FuzzExec feeds arbitrary bytes, one statement per line, to a small
// populated database. In a unikernel the parser shares an address space
// with everything else, so what is checked is containment: no panic
// (rows are handed out capped at their own length, so an overread is a
// panic and not a neighbour's bytes), statements that fail change
// nothing, the row counts follow what the statements reported, the
// trees stay valid, and once every table is emptied the allocator holds
// exactly the tables' cell buffers: no path leaks the scratch block or
// a row. Every TEXT value a Result handed out must still read as it did
// at the end, however many statements ran after it.
func FuzzExec(f *testing.F) {
	f.Fuzz(func(t *testing.T, script string) {
		// 8 KB of statements cannot fill a 1 MB heap, so the checks'
		// own statements never run out of memory.
		script = script[:min(len(script), 8<<10)]
		db := newDBSized(t, 1<<20)
		free0 := db.alloc.Stats().FreeBytes
		fill(t, db, "t", "INT", 40)
		fill(t, db, "p", "INTEGER PRIMARY KEY", 40)

		counts := func() map[string]int {
			m := map[string]int{}
			for name, tab := range db.tables {
				m[name] = tab.rows.count
			}
			return m
		}
		// kept pairs every Text a Result returned with a copy of it.
		var kept [][2]string
		keep := func(res *Result) {
			for _, row := range res.Rows {
				for _, v := range row {
					if v.Text != "" {
						kept = append(kept, [2]string{v.Text, strings.Clone(v.Text)})
					}
				}
			}
		}
		lines := strings.Split(script, "\n")
		if len(lines) > 16 {
			lines = lines[:16]
		}
		for _, stmt := range lines {
			before := counts()
			res, err := db.Exec(stmt)
			if (res == nil) == (err == nil) {
				t.Fatalf("%q: result %v with error %v", stmt, res, err)
			}
			if res != nil {
				keep(res)
			}
			// The model: a table's count moves only by what a successful
			// INSERT or DELETE says it affected.
			want := 0
			for _, n := range before {
				want += n
			}
			if err == nil {
				switch toks, _ := tokenize(stmt, nil); {
				case len(toks) == 0:
				case toks[0].is("INSERT"):
					want += res.Affected
				case toks[0].is("DELETE"):
					want -= res.Affected
				}
			}
			got := 0
			for name, n := range counts() {
				got += n
				if was, existed := before[name]; err != nil && (!existed || n != was) {
					t.Fatalf("%q failed (%v) but table %s went from %d to %d rows", stmt, err, name, was, n)
				}
			}
			if got != want {
				t.Fatalf("%q: %d rows in all, model says %d", stmt, got, want)
			}
		}

		for name, tab := range db.tables {
			if err := db.ValidateTable(name); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			all := mustExec(t, db, "SELECT * FROM "+name)
			keep(all)
			if n := db.rowCount(name); n != tab.rows.count || n != len(all.Rows) ||
				int64(n) != mustExec(t, db, "SELECT COUNT(*) FROM "+name).Rows[0][0].Int {
				t.Fatalf("%s: rowCount() = %d disagrees with COUNT(*) or SELECT *", name, n)
			}
		}
		held := 0
		for name, tab := range db.tables {
			mustExec(t, db, "DELETE FROM "+name)
			held += db.alloc.UsableSize(tab.cellBuf)
		}
		if live := free0 - db.alloc.Stats().FreeBytes; live != held {
			t.Fatalf("%d bytes live with every table empty, the cell buffers account for %d", live, held)
		}
		for _, k := range kept {
			if k[0] != k[1] {
				t.Fatalf("a returned text now reads %q, was %q", k[0], k[1])
			}
		}
	})
}
