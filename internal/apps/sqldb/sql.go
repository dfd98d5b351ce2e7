package sqldb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	"unikraft/internal/ukalloc"
)

// Errors.
var (
	ErrSyntax   = errors.New("sqldb: syntax error")
	ErrNoTable  = errors.New("sqldb: no such table")
	ErrNoColumn = errors.New("sqldb: no such column")
	ErrType     = errors.New("sqldb: type mismatch")
	// ErrConstraint is returned by an INSERT that repeats a primary key.
	ErrConstraint = errors.New("sqldb: constraint failed")
)

// ColType is a column type.
type ColType int

// Column types.
const (
	ColInt ColType = iota
	ColText
)

// Column is a table column definition.
type Column struct {
	Name string
	Type ColType
}

// Value is one cell: Int or Text according to the column.
type Value struct {
	IsNull bool
	Int    int64
	Text   string
}

func (v Value) String() string {
	if v.IsNull {
		return "NULL"
	}
	if v.Text != "" {
		return v.Text
	}
	return strconv.FormatInt(v.Int, 10)
}

// table is one stored table.
type table struct {
	name string
	cols []Column
	// pk is the INTEGER PRIMARY KEY column, or -1. As in SQLite that
	// column is an alias for the rowid: its value is the row's B-tree
	// key, so equality on it is a descent instead of a scan.
	pk   int
	rows *btree
	// cellBuf is the table's working buffer (SQLite's per-btree cell
	// scratch); it is periodically reallocated as rows accumulate,
	// freeing a long-lived allocation — the churn pattern behind the
	// Fig 16 allocator differences.
	cellBuf  ukalloc.Ptr
	cellSize int
}

// DB is the database engine.
type DB struct {
	alloc  ukalloc.Allocator
	tables map[string]*table

	// Parse and execution scratch, reused from one Exec to the next so
	// that a statement allocates little beyond the Result it returns.
	cur  cursor
	vals []Value // the INSERT row being parsed
	proj []int   // SELECT's projected columns
	keys []int64 // rowids this statement stored, or is about to delete

	// Statements counts executed statements.
	Statements uint64
}

// New creates a database over the given allocator backend.
func New(alloc ukalloc.Allocator) *DB {
	return &DB{alloc: alloc, tables: map[string]*table{}}
}

// Result is a query result set.
type Result struct {
	Columns []string
	Rows    [][]Value
	// Affected counts modified rows for DML.
	Affected int
}

// Exec parses and runs one SQL statement.
func (db *DB) Exec(sql string) (*Result, error) {
	db.Statements++
	c := &db.cur
	var err error
	if c.toks, err = tokenize(sql, c.toks[:0]); err != nil {
		return nil, err
	}
	if len(c.toks) == 0 {
		return &Result{}, nil
	}
	// Per-statement scratch allocation, as SQLite allocates its parse
	// tree and VDBE program per statement — this is the churn that
	// makes allocator choice visible in Fig 16.
	scratch, err := db.alloc.Malloc(256 + len(sql))
	if err != nil {
		return nil, fmt.Errorf("sqldb: scratch: %w", err)
	}
	defer db.alloc.Free(scratch)

	c.pos = 0
	switch first := c.next(); {
	case first.is("CREATE"):
		return db.execCreate(c)
	case first.is("INSERT"):
		return db.execInsert(c)
	case first.is("SELECT"):
		return db.execSelect(c)
	case first.is("DELETE"):
		return db.execDelete(c)
	default:
		return nil, fmt.Errorf("%w: unknown statement %q", ErrSyntax, first.s)
	}
}

// --- tokenizer -----------------------------------------------------------

// token is a substring of the statement, except for a string literal
// with an escaped quote in it, which has to be rewritten.
type token struct {
	s     string
	isStr bool // quoted string literal
}

// is reports whether t is the given keyword or punctuation mark.
func (t token) is(s string) bool { return !t.isStr && strings.EqualFold(t.s, s) }

// delim reports whether c ends a bare word.
func delim(c byte) bool {
	switch c {
	case ' ', '\t', '\n', '\r', '(', ')', ',', ';', '*', '=', '\'':
		return true
	}
	return false
}

// tokenize appends sql's tokens to out.
func tokenize(sql string, out []token) ([]token, error) {
	for i := 0; i < len(sql); {
		switch c := sql[i]; c {
		case ' ', '\t', '\n', '\r':
			i++
		case '\'':
			j, escaped := i+1, false
			for ; ; j++ {
				if j >= len(sql) {
					return nil, fmt.Errorf("%w: unterminated string", ErrSyntax)
				}
				if sql[j] != '\'' {
					continue
				}
				if j+1 == len(sql) || sql[j+1] != '\'' {
					break
				}
				escaped = true
				j++
			}
			s := sql[i+1 : j]
			if escaped {
				s = strings.ReplaceAll(s, "''", "'")
			}
			out = append(out, token{s: s, isStr: true})
			i = j + 1
		case '(', ')', ',', ';', '*', '=':
			out = append(out, token{s: sql[i : i+1]})
			i++
		default:
			j := i + 1
			for j < len(sql) && !delim(sql[j]) {
				j++
			}
			out = append(out, token{s: sql[i:j]})
			i = j
		}
	}
	return out, nil
}

// cursor walks a statement's tokens.
type cursor struct {
	toks []token
	pos  int
}

// peek returns the current token, the zero token at end of input.
func (c *cursor) peek() token {
	if c.pos >= len(c.toks) {
		return token{}
	}
	return c.toks[c.pos]
}

func (c *cursor) next() token {
	t := c.peek()
	if c.pos < len(c.toks) {
		c.pos++
	}
	return t
}

func (c *cursor) expect(kw string) error {
	if t := c.next(); !t.is(kw) {
		return fmt.Errorf("%w: expected %q, got %q", ErrSyntax, kw, t.s)
	}
	return nil
}

// ident consumes a table or column name and returns it lower-cased.
func (c *cursor) ident() (string, error) {
	t := c.next()
	if t.isStr || t.s == "" || delim(t.s[0]) {
		return "", fmt.Errorf("%w: expected a name, got %q", ErrSyntax, t.s)
	}
	return strings.ToLower(t.s), nil
}

// end accepts one optional semicolon and then demands end of input:
// every statement form finishes through it, so nothing after a complete
// statement is silently dropped.
func (c *cursor) end() error {
	if c.peek().is(";") {
		c.next()
	}
	if c.pos < len(c.toks) {
		return fmt.Errorf("%w: unexpected %q", ErrSyntax, c.peek().s)
	}
	return nil
}

// table consumes a table name and looks it up.
func (db *DB) table(c *cursor) (*table, error) {
	name, err := c.ident()
	if err != nil {
		return nil, err
	}
	t, ok := db.tables[name]
	if !ok {
		return nil, ErrNoTable
	}
	return t, nil
}

// column resolves a column name.
func (t *table) column(tok token) (int, error) {
	if !tok.isStr {
		name := strings.ToLower(tok.s)
		for i, cd := range t.cols {
			if cd.Name == name {
				return i, nil
			}
		}
	}
	return 0, ErrNoColumn
}

// literal parses a value for a column of the given type. NULL fits any
// column; otherwise a quoted literal is TEXT and a bare one INT, and a
// literal of the wrong kind is an error rather than a zero value.
func literal(tok token, typ ColType) (Value, error) {
	var v Value
	switch {
	case tok.is("NULL"):
		return Value{IsNull: true}, nil
	case tok.isStr:
		v.Text = tok.s
	default:
		n, err := strconv.ParseInt(tok.s, 10, 64)
		if err != nil {
			return v, fmt.Errorf("%w: bad literal %q", ErrSyntax, tok.s)
		}
		v.Int = n
	}
	if tok.isStr != (typ == ColText) {
		return v, fmt.Errorf("%w: literal %q does not fit the column", ErrType, tok.s)
	}
	return v, nil
}

// --- CREATE TABLE ---------------------------------------------------------

func (db *DB) execCreate(c *cursor) (*Result, error) {
	if err := c.expect("TABLE"); err != nil {
		return nil, err
	}
	name, err := c.ident()
	if err != nil {
		return nil, err
	}
	if _, dup := db.tables[name]; dup {
		return nil, fmt.Errorf("sqldb: table %q exists", name)
	}
	if err := c.expect("("); err != nil {
		return nil, err
	}
	t := &table{name: name, pk: -1, rows: newBtree()}
	for {
		cn, err := c.ident()
		if err != nil {
			return nil, err
		}
		var typ ColType
		switch ct := c.next(); {
		case ct.is("INT"), ct.is("INTEGER"):
			typ = ColInt
		case ct.is("TEXT"), ct.is("VARCHAR"):
			typ = ColText
		default:
			return nil, fmt.Errorf("%w: bad column type %q", ErrSyntax, ct.s)
		}
		if c.peek().is("PRIMARY") {
			c.next()
			if err := c.expect("KEY"); err != nil {
				return nil, err
			}
			if typ != ColInt || t.pk >= 0 {
				return nil, fmt.Errorf("%w: PRIMARY KEY goes on one INTEGER column", ErrSyntax)
			}
			t.pk = len(t.cols)
		}
		t.cols = append(t.cols, Column{Name: cn, Type: typ})
		if sep := c.next(); sep.is(")") {
			break
		} else if !sep.is(",") {
			return nil, fmt.Errorf("%w: expected \",\" or \")\", got %q", ErrSyntax, sep.s)
		}
	}
	if err := c.end(); err != nil {
		return nil, err
	}
	db.tables[name] = t
	return &Result{}, nil
}

// --- INSERT ----------------------------------------------------------------

// execInsert is atomic: when a later row fails (a syntax or type error,
// a repeated key, no memory) the rows the statement already stored are
// taken out again.
func (db *DB) execInsert(c *cursor) (*Result, error) {
	if err := c.expect("INTO"); err != nil {
		return nil, err
	}
	t, err := db.table(c)
	if err != nil {
		return nil, err
	}
	if err := c.expect("VALUES"); err != nil {
		return nil, err
	}
	db.keys = db.keys[:0]
	if err := db.insertRows(c, t); err != nil {
		for _, k := range db.keys {
			db.dropRow(t, k)
		}
		return nil, err
	}
	return &Result{Affected: len(db.keys)}, nil
}

// insertRows parses and stores "(v, ...), (v, ...)" one row at a time,
// recording each stored rowid in db.keys.
func (db *DB) insertRows(c *cursor, t *table) error {
	for {
		if err := c.expect("("); err != nil {
			return err
		}
		db.vals = db.vals[:0]
		for {
			if len(db.vals) == len(t.cols) {
				return fmt.Errorf("%w: more than %d values in a row", ErrType, len(t.cols))
			}
			v, err := literal(c.next(), t.cols[len(db.vals)].Type)
			if err != nil {
				return err
			}
			db.vals = append(db.vals, v)
			if sep := c.next(); sep.is(")") {
				break
			} else if !sep.is(",") {
				return fmt.Errorf("%w: expected \",\" or \")\", got %q", ErrSyntax, sep.s)
			}
		}
		if len(db.vals) != len(t.cols) {
			return fmt.Errorf("%w: %d values for %d columns", ErrType, len(db.vals), len(t.cols))
		}
		key, err := db.storeRow(t, db.vals)
		if err != nil {
			return err
		}
		db.keys = append(db.keys, key)
		if !c.peek().is(",") {
			return c.end()
		}
		c.next()
	}
}

// --- row encoding in the ukalloc arena --------------------------------------

// A row is its cells back to back, each a not-NULL flag byte followed
// by 8 little-endian bytes (INT) or a 4-byte little-endian length and
// that many bytes (TEXT).
const (
	intCell  = 1 + 8
	textHead = 1 + 4
)

// storeRow encodes vals and inserts them under the rowid it returns:
// the primary-key value where the table has one and the row gives it,
// one past the largest rowid in the table otherwise.
func (db *DB) storeRow(t *table, vals []Value) (int64, error) {
	var key int64
	if t.pk >= 0 && !vals[t.pk].IsNull {
		key = vals[t.pk].Int
		if _, dup := t.rows.get(key); dup {
			return 0, fmt.Errorf("%w: %s.%s = %d exists", ErrConstraint, t.name, t.cols[t.pk].Name, key)
		}
	} else {
		last := t.rows.maxKey()
		if last == math.MaxInt64 {
			return 0, fmt.Errorf("%w: %s has no rowid left", ErrConstraint, t.name)
		}
		key = last + 1
		if t.pk >= 0 {
			vals[t.pk] = Value{Int: key} // reading the column back gives the rowid
		}
	}
	size := 0
	for i, v := range vals {
		if t.cols[i].Type == ColInt {
			size += intCell
		} else {
			size += textHead + len(v.Text)
		}
	}
	p, err := db.alloc.Malloc(size)
	if err != nil {
		return 0, fmt.Errorf("sqldb: row alloc: %w", err)
	}
	buf := ukalloc.Bytes(db.alloc, p, size)
	off := 0
	for i, v := range vals {
		buf[off] = 1
		if v.IsNull {
			buf[off] = 0
		}
		if t.cols[i].Type == ColInt {
			binary.LittleEndian.PutUint64(buf[off+1:], uint64(v.Int))
			off += intCell
		} else {
			binary.LittleEndian.PutUint32(buf[off+1:], uint32(len(v.Text)))
			off += textHead + copy(buf[off+textHead:], v.Text)
		}
	}
	t.rows.insert(key, rowRef{p: tablePtr(p), n: size})
	// Grow the cell working buffer every 32 rows (amortized realloc, as
	// SQLite grows its balance/cell buffers with page occupancy).
	if t.rows.count%32 == 0 {
		want := 512 + (t.rows.count/32%8)*256
		np, err := db.alloc.Malloc(want)
		if err == nil {
			if !t.cellBuf.IsNil() {
				db.alloc.Free(t.cellBuf)
			}
			t.cellBuf, t.cellSize = np, want
		}
	}
	return key, nil
}

// dropRow removes the row stored under key and frees its block.
func (db *DB) dropRow(t *table, key int64) {
	if ref, ok := t.rows.remove(key); ok {
		db.alloc.Free(ukalloc.Ptr(ref.p))
	}
}

// cell returns the offset of column col's cell in an encoded row.
func (t *table) cell(row []byte, col int) int {
	off := 0
	for _, cd := range t.cols[:col] {
		if cd.Type == ColInt {
			off += intCell
		} else {
			off += textHead + len(cellText(row, off))
		}
	}
	return off
}

// cellInt and cellText read the payload of the cell at off.
func cellInt(row []byte, off int) int64 { return int64(binary.LittleEndian.Uint64(row[off+1:])) }

func cellText(row []byte, off int) []byte {
	n := int(binary.LittleEndian.Uint32(row[off+1:]))
	return row[off+textHead : off+textHead+n]
}

// matches evaluates w on the encoded row, without decoding it. NULL
// equals nothing.
func (t *table) matches(w *where, row []byte) bool {
	off := t.cell(row, w.col)
	if row[off] == 0 {
		return false
	}
	if t.cols[w.col].Type == ColInt {
		return cellInt(row, off) == w.val.Int
	}
	return string(cellText(row, off)) == w.val.Text // compared in place, no copy
}

// decode materialises the projected columns of an encoded row.
func (t *table) decode(row []byte, proj []int) []Value {
	out := make([]Value, len(proj))
	for i, col := range proj {
		off := t.cell(row, col)
		out[i].IsNull = row[off] == 0
		if t.cols[col].Type == ColInt {
			out[i].Int = cellInt(row, off)
		} else {
			out[i].Text = string(cellText(row, off))
		}
	}
	return out
}

// --- SELECT / DELETE ---------------------------------------------------------

// where is the dialect's one predicate, col = val; col is -1 when the
// statement has none.
type where struct {
	col int
	val Value
}

func parseWhere(c *cursor, t *table) (where, error) {
	w := where{col: -1}
	if !c.peek().is("WHERE") {
		return w, nil
	}
	c.next()
	col, err := t.column(c.next())
	if err != nil {
		return w, err
	}
	if err := c.expect("="); err != nil {
		return w, err
	}
	v, err := literal(c.next(), t.cols[col].Type)
	if err != nil {
		return w, err
	}
	return where{col: col, val: v}, nil
}

// each calls fn, in rowid order, with every row of t that w selects. An
// equality on the primary key is one B-tree descent; any other
// predicate is tested on the rows' stored bytes, so a row that does not
// match is never decoded. The row handed to fn is capped at its own
// length: reading past it panics instead of reaching a neighbour.
func (db *DB) each(t *table, w where, fn func(key int64, row []byte)) {
	mem := db.alloc.Arena().Bytes()
	switch {
	case w.col >= 0 && w.val.IsNull:
		// NULL equals nothing.
	case w.col >= 0 && w.col == t.pk:
		if ref, ok := t.rows.get(w.val.Int); ok {
			fn(w.val.Int, ref.in(mem))
		}
	default:
		t.rows.scan(func(key int64, ref rowRef) bool {
			if row := ref.in(mem); w.col < 0 || t.matches(&w, row) {
				fn(key, row)
			}
			return true
		})
	}
}

func (db *DB) execSelect(c *cursor) (*Result, error) {
	// Projection: * | COUNT ( * ) | col[, col...]. A column list is
	// resolved once FROM has named the table.
	var count bool
	var list []token // the column list, commas included; empty for *
	switch {
	case c.peek().is("COUNT"):
		c.next()
		for _, kw := range []string{"(", "*", ")"} {
			if err := c.expect(kw); err != nil {
				return nil, err
			}
		}
		count = true
	case c.peek().is("*"):
		c.next()
	default:
		start := c.pos
		c.next()
		for c.peek().is(",") {
			c.next()
			c.next()
		}
		list = c.toks[start:c.pos]
	}
	if err := c.expect("FROM"); err != nil {
		return nil, err
	}
	t, err := db.table(c)
	if err != nil {
		return nil, err
	}
	w, err := parseWhere(c, t)
	if err != nil {
		return nil, err
	}
	if err := c.end(); err != nil {
		return nil, err
	}

	if count {
		n := t.rows.count
		if w.col >= 0 {
			n = 0
			db.each(t, w, func(int64, []byte) { n++ })
		}
		return &Result{Columns: []string{"count"}, Rows: [][]Value{{{Int: int64(n)}}}}, nil
	}

	proj := db.proj[:0]
	for i := 0; i < len(list); i += 2 {
		col, err := t.column(list[i])
		if err != nil {
			return nil, err
		}
		proj = append(proj, col)
	}
	if len(list) == 0 {
		for i := range t.cols {
			proj = append(proj, i)
		}
	}
	db.proj = proj
	res := &Result{Columns: make([]string, len(proj))}
	for i, col := range proj {
		res.Columns[i] = t.cols[col].Name
	}
	db.each(t, w, func(_ int64, row []byte) {
		res.Rows = append(res.Rows, t.decode(row, proj))
	})
	return res, nil
}

func (db *DB) execDelete(c *cursor) (*Result, error) {
	if err := c.expect("FROM"); err != nil {
		return nil, err
	}
	t, err := db.table(c)
	if err != nil {
		return nil, err
	}
	w, err := parseWhere(c, t)
	if err != nil {
		return nil, err
	}
	if err := c.end(); err != nil {
		return nil, err
	}
	victims := db.keys[:0]
	db.each(t, w, func(key int64, _ []byte) { victims = append(victims, key) })
	db.keys = victims
	for _, k := range victims {
		db.dropRow(t, k)
	}
	return &Result{Affected: len(victims)}, nil
}

// Rows reports a table's row count (tests).
func (db *DB) Rows(tableName string) int {
	t, ok := db.tables[strings.ToLower(tableName)]
	if !ok {
		return -1
	}
	return t.rows.count
}

// ValidateTable checks the underlying tree invariants (tests).
func (db *DB) ValidateTable(tableName string) error {
	t, ok := db.tables[strings.ToLower(tableName)]
	if !ok {
		return ErrNoTable
	}
	return t.rows.validate()
}
