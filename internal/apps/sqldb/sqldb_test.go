package sqldb

import (
	"fmt"
	"testing"
	"testing/quick"

	_ "unikraft/internal/allocators/tlsf"
	"unikraft/internal/sim"
	"unikraft/internal/ukalloc"
)

func newDB(t *testing.T) *DB {
	t.Helper()
	a, err := ukalloc.NewBackend("tlsf", sim.NewMachine())
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Init(ukalloc.NewArena(32 << 20)); err != nil {
		t.Fatal(err)
	}
	return New(a)
}

func mustExec(t *testing.T, db *DB, sql string) *Result {
	t.Helper()
	r, err := db.Exec(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return r
}

func TestCreateInsertSelect(t *testing.T) {
	db := newDB(t)
	mustExec(t, db, "CREATE TABLE users (id INT, name TEXT)")
	mustExec(t, db, "INSERT INTO users VALUES (1, 'alice')")
	mustExec(t, db, "INSERT INTO users VALUES (2, 'bob'), (3, 'carol')")
	r := mustExec(t, db, "SELECT * FROM users")
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	if r.Rows[0][1].Text != "alice" || r.Rows[2][1].Text != "carol" {
		t.Fatalf("rows = %v", r.Rows)
	}
	if r.Columns[0] != "id" || r.Columns[1] != "name" {
		t.Fatalf("columns = %v", r.Columns)
	}
}

func TestWhereAndProjection(t *testing.T) {
	db := newDB(t)
	mustExec(t, db, "CREATE TABLE t (a INT, b TEXT)")
	for i := 0; i < 50; i++ {
		mustExec(t, db, fmt.Sprintf("INSERT INTO t VALUES (%d, 'row%d')", i%10, i))
	}
	r := mustExec(t, db, "SELECT b FROM t WHERE a = 3")
	if len(r.Rows) != 5 {
		t.Fatalf("WHERE a=3 rows = %d, want 5", len(r.Rows))
	}
	if len(r.Rows[0]) != 1 {
		t.Fatalf("projection width = %d", len(r.Rows[0]))
	}
	r = mustExec(t, db, "SELECT b FROM t WHERE b = 'row7'")
	if len(r.Rows) != 1 || r.Rows[0][0].Text != "row7" {
		t.Fatalf("text WHERE = %v", r.Rows)
	}
	r = mustExec(t, db, "SELECT COUNT(*) FROM t")
	if r.Rows[0][0].Int != 50 {
		t.Fatalf("count = %d", r.Rows[0][0].Int)
	}
}

func TestDelete(t *testing.T) {
	db := newDB(t)
	mustExec(t, db, "CREATE TABLE t (a INT)")
	for i := 0; i < 20; i++ {
		mustExec(t, db, fmt.Sprintf("INSERT INTO t VALUES (%d)", i%2))
	}
	r := mustExec(t, db, "DELETE FROM t WHERE a = 0")
	if r.Affected != 10 {
		t.Fatalf("deleted = %d", r.Affected)
	}
	if db.Rows("t") != 10 {
		t.Fatalf("remaining = %d", db.Rows("t"))
	}
	if err := db.ValidateTable("t"); err != nil {
		t.Fatal(err)
	}
}

func TestErrors(t *testing.T) {
	db := newDB(t)
	if _, err := db.Exec("SELECT * FROM nope"); err != ErrNoTable {
		t.Errorf("missing table = %v", err)
	}
	mustExec(t, db, "CREATE TABLE t (a INT)")
	if _, err := db.Exec("CREATE TABLE t (b INT)"); err == nil {
		t.Error("duplicate table accepted")
	}
	if _, err := db.Exec("SELECT nope FROM t"); err != ErrNoColumn {
		t.Errorf("missing column = %v", err)
	}
	if _, err := db.Exec("INSERT INTO t VALUES (1, 2)"); err == nil {
		t.Error("arity mismatch accepted")
	}
	if _, err := db.Exec("INSERT INTO t VALUES ('unterminated"); err == nil {
		t.Error("unterminated string accepted")
	}
	if _, err := db.Exec("BANANAS"); err == nil {
		t.Error("garbage statement accepted")
	}
}

func TestStringEscapes(t *testing.T) {
	db := newDB(t)
	mustExec(t, db, "CREATE TABLE t (s TEXT)")
	mustExec(t, db, "INSERT INTO t VALUES ('it''s quoted')")
	r := mustExec(t, db, "SELECT s FROM t")
	if r.Rows[0][0].Text != "it's quoted" {
		t.Fatalf("escaped string = %q", r.Rows[0][0].Text)
	}
}

func TestNullHandling(t *testing.T) {
	db := newDB(t)
	mustExec(t, db, "CREATE TABLE t (a INT, b TEXT)")
	mustExec(t, db, "INSERT INTO t VALUES (NULL, 'x')")
	r := mustExec(t, db, "SELECT a FROM t")
	if !r.Rows[0][0].IsNull {
		t.Fatal("NULL lost")
	}
	// NULL never matches equality.
	r = mustExec(t, db, "SELECT * FROM t WHERE a = 0")
	if len(r.Rows) != 0 {
		t.Fatal("NULL matched =")
	}
}

func TestLargeInsertAndValidate(t *testing.T) {
	db := newDB(t)
	mustExec(t, db, "CREATE TABLE big (n INT, s TEXT)")
	const rows = 5000
	for i := 0; i < rows; i++ {
		mustExec(t, db, fmt.Sprintf("INSERT INTO big VALUES (%d, 'value-%d')", i, i))
	}
	if db.Rows("big") != rows {
		t.Fatalf("rows = %d", db.Rows("big"))
	}
	if err := db.ValidateTable("big"); err != nil {
		t.Fatal(err)
	}
	r := mustExec(t, db, "SELECT s FROM big WHERE n = 4321")
	if len(r.Rows) != 1 || r.Rows[0][0].Text != "value-4321" {
		t.Fatalf("lookup in big table = %v", r.Rows)
	}
}

// TestBtreeProperty: insert random keys, validate order and retrievability.
func TestBtreeProperty(t *testing.T) {
	f := func(keys []int16) bool {
		tree := newBtree()
		seen := map[int64]bool{}
		for _, k := range keys {
			key := int64(k)
			if seen[key] {
				continue
			}
			seen[key] = true
			tree.insert(key, rowRef{p: tablePtr(key), n: 1})
		}
		if tree.count != len(seen) {
			return false
		}
		if tree.validate() != nil {
			return false
		}
		for k := range seen {
			ref, ok := tree.get(k)
			if !ok || ref.p != tablePtr(k) {
				return false
			}
		}
		_, ok := tree.get(99999)
		return !ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestBtreeRemove(t *testing.T) {
	tree := newBtree()
	for i := int64(0); i < 500; i++ {
		tree.insert(i, rowRef{p: tablePtr(i)})
	}
	for i := int64(0); i < 500; i += 2 {
		if _, ok := tree.remove(i); !ok {
			t.Fatalf("remove(%d) failed", i)
		}
	}
	if tree.count != 250 {
		t.Fatalf("count = %d", tree.count)
	}
	if err := tree.validate(); err != nil {
		t.Fatal(err)
	}
	if _, ok := tree.get(100); ok {
		t.Fatal("removed key still present")
	}
	if _, ok := tree.get(101); !ok {
		t.Fatal("kept key lost")
	}
}
