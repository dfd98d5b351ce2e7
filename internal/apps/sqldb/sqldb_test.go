package sqldb

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	_ "unikraft/internal/allocators/tlsf"
	"unikraft/internal/sim"
	"unikraft/internal/ukalloc"
)

func newDB(t testing.TB) *DB { return newDBSized(t, 32<<20) }

func newDBSized(t testing.TB, heapBytes int) *DB {
	t.Helper()
	a, err := ukalloc.NewBackend("tlsf", sim.NewMachine())
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Init(ukalloc.NewArena(heapBytes)); err != nil {
		t.Fatal(err)
	}
	return New(a)
}

func mustExec(t testing.TB, db *DB, sql string) *Result {
	t.Helper()
	r, err := db.Exec(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return r
}

// fill creates table name (id INT[ PRIMARY KEY], name TEXT) and inserts
// rows rows with ids 0, 7, 14, ...
func fill(tb testing.TB, db *DB, name, idType string, rows int) {
	tb.Helper()
	mustExec(tb, db, fmt.Sprintf("CREATE TABLE %s (id %s, name TEXT)", name, idType))
	for i := 0; i < rows; i++ {
		mustExec(tb, db, fmt.Sprintf("INSERT INTO %s VALUES (%d, 'user%06d')", name, i*7, i))
	}
}

// pointSelects returns n point selects, each matching one row, over
// ids spread through a table fill made.
func pointSelects(name string, rows, n int) []string {
	stmts := make([]string, n)
	for i := range stmts {
		stmts[i] = fmt.Sprintf("SELECT id, name FROM %s WHERE id = %d", name, (i*7919%rows)*7)
	}
	return stmts
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

// TestBtreeMaxKey: remove never merges, so emptying the top of the tree
// leaves empty leaves on its right edge, which maxKey has to back over.
func TestBtreeMaxKey(t *testing.T) {
	tree := newBtree()
	for i := int64(1); i <= 500; i++ {
		tree.insert(i, rowRef{p: tablePtr(i)})
	}
	for _, top := range []int64{500, 100, 0} {
		for i := tree.maxKey(); i > top; i-- {
			tree.remove(i)
		}
		if got := tree.maxKey(); got != top || tree.count != int(top) {
			t.Fatalf("maxKey = %d with %d keys, want %d", got, tree.count, top)
		}
	}
}

// TestTrailingTokens: a statement ends at end of input or one ';'.
// Before, whatever followed a complete statement was dropped, so a
// misspelt WHERE deleted or counted the whole table.
func TestTrailingTokens(t *testing.T) {
	db := newDB(t)
	mustExec(t, db, "CREATE TABLE t (id INT, name TEXT)")
	mustExec(t, db, "INSERT INTO t VALUES (1, 'a'), (1, 'c'), (2, 'b');")
	for _, stmt := range []string{
		"DELETE FROM t WHER id = 1",
		"SELECT COUNT(*) FROM t WHER id = 1",
		"SELECT * FROM t WHERE id = 1 AND name = 'c'",
		"SELECT * FROM t WHERE id = 1 OR 1 = 1",
		"SELECT * FROM t;;",
		"INSERT INTO t VALUES (3, 'd') (4, 'e')",
		"CREATE TABLE u (a INT) WITHOUT ROWID",
	} {
		if _, err := db.Exec(stmt); !errors.Is(err, ErrSyntax) {
			t.Errorf("%s: err = %v, want ErrSyntax", stmt, err)
		}
	}
	if db.Rows("t") != 3 || db.Rows("u") != -1 {
		t.Fatalf("rejected statements took effect: t has %d rows, u %d", db.Rows("t"), db.Rows("u"))
	}
	if r := mustExec(t, db, "SELECT name FROM t WHERE id = 1;"); len(r.Rows) != 2 {
		t.Fatalf("one trailing ';' rows = %v", r.Rows)
	}
}

// TestLiteralTypes: a literal's kind is checked against its column's
// type at parse. Before, a string stored into an INT column became 0
// and WHERE chose text or integer comparison from the values' contents.
func TestLiteralTypes(t *testing.T) {
	db := newDB(t)
	mustExec(t, db, "CREATE TABLE t (id INT, name TEXT)")
	mustExec(t, db, "INSERT INTO t VALUES (0, ''), (NULL, NULL), (7, '7')")
	for _, stmt := range []string{
		"INSERT INTO t VALUES ('abc', 5)",
		"SELECT * FROM t WHERE name = 0",
		"SELECT * FROM t WHERE id = ''",
		"DELETE FROM t WHERE name = 7",
		"INSERT INTO t VALUES (1, 'ok'), (2, 3)",
	} {
		if _, err := db.Exec(stmt); !errors.Is(err, ErrType) {
			t.Errorf("%s: err = %v, want ErrType", stmt, err)
		}
	}
	if db.Rows("t") != 3 {
		t.Fatalf("rows = %d after rejected statements, want 3", db.Rows("t"))
	}
	if r := mustExec(t, db, "SELECT id FROM t WHERE name = ''"); len(r.Rows) != 1 || r.Rows[0][0].IsNull {
		t.Fatalf("WHERE name = '' rows = %v, want the one non-NULL empty name", r.Rows)
	}
	if r := mustExec(t, db, "SELECT name FROM t WHERE id = 0"); len(r.Rows) != 1 {
		t.Fatalf("WHERE id = 0 rows = %v, want one (NULL is not 0)", r.Rows)
	}
}

// TestPrimaryKey: an INTEGER PRIMARY KEY column is the rowid.
func TestPrimaryKey(t *testing.T) {
	db := newDB(t)
	for _, stmt := range []string{
		"CREATE TABLE bad (name TEXT PRIMARY KEY)",
		"CREATE TABLE bad (a INTEGER PRIMARY KEY, b INT PRIMARY KEY)",
		"CREATE TABLE bad (a INTEGER PRIMARY)",
	} {
		if _, err := db.Exec(stmt); !errors.Is(err, ErrSyntax) {
			t.Errorf("%s: err = %v, want ErrSyntax", stmt, err)
		}
	}
	mustExec(t, db, "CREATE TABLE t (name TEXT, id INTEGER PRIMARY KEY)")
	mustExec(t, db, "INSERT INTO t VALUES ('thirty', 30), ('ten', 10), ('twenty', 20)")
	// Scan order is key order, not insertion order.
	ids := func() (out []int64) {
		for _, row := range mustExec(t, db, "SELECT id FROM t").Rows {
			out = append(out, row[0].Int)
		}
		return out
	}
	if got := ids(); !slices.Equal(got, []int64{10, 20, 30}) {
		t.Fatalf("scan order = %v", got)
	}
	// NULL takes max+1, and reads back as that.
	mustExec(t, db, "INSERT INTO t VALUES ('auto', NULL)")
	if r := mustExec(t, db, "SELECT id FROM t WHERE name = 'auto'"); len(r.Rows) != 1 || r.Rows[0][0] != (Value{Int: 31}) {
		t.Fatalf("NULL key stored as %v, want 31", r.Rows)
	}
	if _, err := db.Exec("INSERT INTO t VALUES ('dup', 20)"); !errors.Is(err, ErrConstraint) {
		t.Fatalf("duplicate key: err = %v, want ErrConstraint", err)
	}
	// A multi-row INSERT that fails part-way stores nothing.
	if _, err := db.Exec("INSERT INTO t VALUES ('new', 40), ('dup', 10)"); !errors.Is(err, ErrConstraint) || db.Rows("t") != 4 {
		t.Fatalf("partial insert: err = %v, rows = %d", err, db.Rows("t"))
	}
	if r := mustExec(t, db, "SELECT name FROM t WHERE id = 20"); len(r.Rows) != 1 || r.Rows[0][0].Text != "twenty" {
		t.Fatalf("point select = %v", r.Rows)
	}
	if r := mustExec(t, db, "SELECT COUNT(*) FROM t WHERE id = 25"); r.Rows[0][0].Int != 0 {
		t.Fatalf("absent key counted %d", r.Rows[0][0].Int)
	}
	// Delete, then reinsert the same id; the emptied top key is reused.
	if r := mustExec(t, db, "DELETE FROM t WHERE id = 20"); r.Affected != 1 {
		t.Fatalf("delete affected %d", r.Affected)
	}
	if r := mustExec(t, db, "DELETE FROM t WHERE id = 20"); r.Affected != 0 {
		t.Fatalf("second delete affected %d", r.Affected)
	}
	mustExec(t, db, "INSERT INTO t VALUES ('twenty again', 20)")
	mustExec(t, db, "DELETE FROM t WHERE id = 31")
	mustExec(t, db, "INSERT INTO t VALUES ('auto again', NULL)")
	if got := ids(); !slices.Equal(got, []int64{10, 20, 30, 31}) {
		t.Fatalf("ids after delete/reinsert = %v", got)
	}
	if _, err := db.Exec("INSERT INTO t VALUES ('top', 9223372036854775807), ('over', NULL)"); !errors.Is(err, ErrConstraint) || db.Rows("t") != 4 {
		t.Fatalf("rowid overflow: err = %v, rows = %d", err, db.Rows("t"))
	}
	if err := db.ValidateTable("t"); err != nil {
		t.Fatal(err)
	}
}

// TestExecSteadyStateAllocs: what a statement allocates on the host
// does not depend on how many rows it walks past.
func TestExecSteadyStateAllocs(t *testing.T) {
	for _, idType := range []string{"INT", "INTEGER PRIMARY KEY"} {
		var allocs [2]float64
		for i, rows := range []int{256, 4096} {
			db := newDB(t)
			fill(t, db, "t", idType, rows)
			stmts, k := pointSelects("t", rows, 64), 0
			allocs[i] = testing.AllocsPerRun(128, func() {
				if r, err := db.Exec(stmts[k%len(stmts)]); err != nil || len(r.Rows) != 1 {
					t.Fatalf("%s: %v, %v", stmts[k%len(stmts)], r, err)
				}
				k++
			})
		}
		if allocs[0] != allocs[1] || allocs[0] > 10 {
			t.Errorf("id %s: point select allocates %v at 256 rows, %v at 4096; want equal and <= 10", idType, allocs[0], allocs[1])
		}
	}

	db := newDB(t)
	mustExec(t, db, "CREATE TABLE t (id INT, name TEXT)")
	stmts := make([]string, 257)
	for i := range stmts {
		stmts[i] = fmt.Sprintf("INSERT INTO t VALUES (%d, 'user%06d')", i, i)
	}
	k := 0
	if got := testing.AllocsPerRun(len(stmts)-1, func() {
		mustExec(t, db, stmts[k])
		k++
	}); got > 3 {
		t.Errorf("insert allocates %v, want <= 3", got)
	}
}

// TestInsertOutOfMemory: an INSERT the heap cannot hold in full stores
// nothing and leaks nothing.
func TestInsertOutOfMemory(t *testing.T) {
	db := newDBSized(t, 64<<10)
	free0 := db.alloc.Stats().FreeBytes
	mustExec(t, db, "CREATE TABLE t (s TEXT)")
	mustExec(t, db, "INSERT INTO t VALUES ('kept')")
	row := "('" + strings.Repeat("x", 900) + "')"
	stmt := "INSERT INTO t VALUES " + row + strings.Repeat(", "+row, 39)
	// The 36 KB statement's scratch fits in 64 KB; its 40 rows of 900 B
	// then do not.
	if _, err := db.Exec(stmt); !errors.Is(err, ukalloc.ErrNoMem) || !strings.Contains(err.Error(), "row alloc") {
		t.Fatalf("err = %v, want ErrNoMem from a row allocation", err)
	}
	if r := mustExec(t, db, "SELECT s FROM t"); len(r.Rows) != 1 || r.Rows[0][0].Text != "kept" {
		t.Fatalf("rows after the failed insert = %v", r.Rows)
	}
	mustExec(t, db, "DELETE FROM t")
	if live := free0 - db.alloc.Stats().FreeBytes; live != db.alloc.UsableSize(db.tables["t"].cellBuf) {
		t.Fatalf("%d bytes live in an empty table", live)
	}
}
