// SQL database: the SQLite-analogue engine run over two ukalloc
// backends, demonstrating the paper's allocator-specialization result
// (§5.5, Fig 16): tinyalloc wins small workloads, a general-purpose
// allocator wins sustained ones — and the right pick is one Kconfig
// option away.
package main

import (
	"fmt"
	"log"

	"unikraft"
	"unikraft/internal/apps/sqldb"
	"unikraft/internal/sim"
	"unikraft/internal/ukalloc"
)

func insertRun(allocName string, rows int) (float64, error) {
	m := sim.NewMachine()
	a, err := ukalloc.NewInitialized(allocName, m, 128<<20)
	if err != nil {
		return 0, err
	}
	db := sqldb.New(a)
	if _, err := db.Exec("CREATE TABLE users (id INT, name TEXT, email TEXT)"); err != nil {
		return 0, err
	}
	for i := 0; i < rows; i++ {
		stmt := fmt.Sprintf("INSERT INTO users VALUES (%d, 'user%d', 'user%d@example.org')", i, i, i)
		if _, err := db.Exec(stmt); err != nil {
			return 0, err
		}
	}
	// Sanity: query back through the engine.
	res, err := db.Exec("SELECT COUNT(*) FROM users")
	if err != nil {
		return 0, err
	}
	if got := res.Rows[0][0].Int; got != int64(rows) {
		return 0, fmt.Errorf("row count %d, want %d", got, rows)
	}
	return m.CPU.Now().Seconds(), nil
}

func main() {
	// The sqlite profile, specialized two ways: the allocator is one
	// spec option, and the image/boot cost of each choice falls out of
	// the same pipeline that runs the workload.
	rt := unikraft.NewRuntime()
	for _, alloc := range []string{"tinyalloc", "mimalloc"} {
		inst, err := rt.Run(unikraft.NewSpec("sqlite",
			unikraft.WithAllocator(alloc),
			unikraft.WithDCE(), unikraft.WithLTO()))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("sqlite_%-10s image=%7.1fKB guest-boot=%v\n",
			alloc, float64(inst.Image.Bytes)/1024, inst.VM.Report.Guest)
		inst.Close()
	}

	fmt.Println("\nINSERT workload, virtual seconds on the 3.6GHz simulated core:")
	for _, rows := range []int{100, 5000, 20000} {
		fmt.Printf("  %6d rows:", rows)
		for _, alloc := range []string{"tinyalloc", "mimalloc"} {
			secs, err := insertRun(alloc, rows)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  %s=%.4fs", alloc, secs)
		}
		fmt.Println()
	}
	fmt.Println("(Fig 16 shape: tinyalloc ahead at small row counts, behind under load)")

	// And a taste of the SQL surface.
	a, err := unikraft.NewAllocator("mimalloc", 16<<20)
	if err != nil {
		log.Fatal(err)
	}
	db := sqldb.New(a)
	must := func(sql string) *sqldb.Result {
		r, err := db.Exec(sql)
		if err != nil {
			log.Fatalf("%s: %v", sql, err)
		}
		return r
	}
	must("CREATE TABLE kv (k TEXT, v INT)")
	must("INSERT INTO kv VALUES ('answer', 42), ('pi', 3)")
	r := must("SELECT v FROM kv WHERE k = 'answer'")
	fmt.Printf("\nSELECT v FROM kv WHERE k = 'answer' -> %v\n", r.Rows[0][0].Int)

	// An INTEGER PRIMARY KEY column is the rowid, as in SQLite: the
	// B-tree is keyed by it, so equality on it is a descent, not a scan,
	// and a NULL id takes the next free one.
	must("CREATE TABLE users (id INTEGER PRIMARY KEY, name TEXT)")
	must("INSERT INTO users VALUES (7, 'ada'), (3, 'brian'), (NULL, 'grace')")
	r = must("SELECT id, name FROM users WHERE id = 8")
	fmt.Printf("SELECT id, name FROM users WHERE id = 8 -> %v, %v\n", r.Rows[0][0].Int, r.Rows[0][1].Text)
}
