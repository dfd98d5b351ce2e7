package sqldb

import (
	"fmt"
	"testing"
)

var benchResult *Result

// BenchmarkExec prices one statement of each shape the SQL workloads
// run, on the host: none of this is virtual time (sqldb charges only
// its allocator traffic).
func BenchmarkExec(b *testing.B) {
	run := func(b *testing.B, db *DB, stmts []string) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r, err := db.Exec(stmts[i%len(stmts)])
			if err != nil {
				b.Fatal(err)
			}
			benchResult = r
		}
	}

	b.Run("insert", func(b *testing.B) {
		// A fresh database every 16K rows keeps the arena small
		// whatever b.N is.
		const batch = 1 << 14
		stmts := make([]string, batch)
		for i := range stmts {
			stmts[i] = fmt.Sprintf("INSERT INTO t VALUES (%d, 'user%06d')", i, i)
		}
		b.ReportAllocs()
		b.ResetTimer()
		var db *DB
		for i := 0; i < b.N; i++ {
			if i%batch == 0 {
				b.StopTimer()
				db = newDB(b)
				mustExec(b, db, "CREATE TABLE t (id INT, name TEXT)")
				b.StartTimer()
			}
			if _, err := db.Exec(stmts[i%batch]); err != nil {
				b.Fatal(err)
			}
		}
	})

	for _, c := range []struct {
		name, idType string
		rows         int
	}{
		{"select-scan-256", "INT", 256},
		{"select-scan-40000", "INT", 40_000},
		{"select-pk-256", "INTEGER PRIMARY KEY", 256},
		{"select-pk-60000", "INTEGER PRIMARY KEY", 60_000},
	} {
		b.Run(c.name, func(b *testing.B) {
			db := newDB(b)
			fill(b, db, "t", c.idType, c.rows)
			run(b, db, pointSelects("t", c.rows, 1024))
		})
	}

	b.Run("delete-reinsert", func(b *testing.B) {
		// One op is a DELETE of one id from a 256-row table and an
		// INSERT that puts it back, as sql-mixed's hot table sees them.
		// remove leaves emptied leaves in the tree, so the table is
		// rebuilt every 4K ops to keep the scan the same length.
		const rows, batch = 256, 1 << 12
		stmts := make([]string, 2*rows)
		for i := 0; i < rows; i++ {
			id := (i * 7919 % rows) * 7
			stmts[2*i] = fmt.Sprintf("DELETE FROM t WHERE id = %d", id)
			stmts[2*i+1] = fmt.Sprintf("INSERT INTO t VALUES (%d, 'user%06d')", id, i)
		}
		b.ReportAllocs()
		b.ResetTimer()
		var db *DB
		for i := 0; i < b.N; i++ {
			if i%batch == 0 {
				b.StopTimer()
				db = newDB(b)
				fill(b, db, "t", "INT", rows)
				b.StartTimer()
			}
			for _, s := range stmts[2*(i%rows) : 2*(i%rows)+2] {
				r, err := db.Exec(s)
				if err != nil || r.Affected != 1 {
					b.Fatalf("%s: %v, %+v", s, err, r)
				}
			}
		}
	})
}
