package sqldb

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	_ "unikraft/internal/allocators/bootalloc"
	_ "unikraft/internal/allocators/buddy"
	_ "unikraft/internal/allocators/mimalloc"
	_ "unikraft/internal/allocators/tinyalloc"
	_ "unikraft/internal/allocators/tlsf"
	"unikraft/internal/sim"
	"unikraft/internal/ukalloc"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/guest_golden.json from the current code")

const goldenPath = "testdata/guest_golden.json"

// goldenAllocators are the five backends the script runs through.
var goldenAllocators = []string{"bootalloc", "buddy", "mimalloc", "tinyalloc", "tlsf"}

// goldenScript is a fixed run of every statement shape the engine
// takes: single and multi-row inserts that split nodes and churn the
// cell buffer, point selects by key and by scan, projections, matches
// of none, one and many rows, COUNTs, deletes by key, by scan and of a
// whole table, re-inserts, and failed statements (a multi-row insert
// rolled back on a repeated key or a mistyped literal, syntax errors,
// an unknown table).
func goldenScript() []string {
	s := []string{
		"CREATE TABLE t (id INT, name TEXT, score INT)",
		"CREATE TABLE p (id INTEGER PRIMARY KEY, label TEXT)",
		"",
		"   ",
	}
	for i := 0; i < 150; i++ {
		name := fmt.Sprintf("'n%04d'", i)
		if i%11 == 5 {
			name = "NULL"
		}
		s = append(s, fmt.Sprintf("INSERT INTO t VALUES (%d, %s, %d)", i*3, name, i%7))
	}
	for b := 0; b < 4; b++ {
		rows := make([]string, 10)
		for i := range rows {
			id := (b*10 + i) * 5
			rows[i] = fmt.Sprintf("(%d, 'L%d')", id, id%9)
		}
		s = append(s, "INSERT INTO p VALUES "+strings.Join(rows, ", "))
	}
	return append(s,
		"INSERT INTO t VALUES (7777, 'it''s', NULL), (8888, '', 0)",
		"INSERT INTO t VALUES (9999, '"+strings.Repeat("long text ", 30)+"', 1)",
		"SELECT * FROM t WHERE id = 36",
		"SELECT name, id FROM t WHERE name = 'n0042'",
		"SELECT score, name FROM t WHERE score = 3",
		"SELECT * FROM t WHERE id = 999999",
		"SELECT * FROM t WHERE name = NULL",
		"SELECT * FROM t WHERE id = 7777",
		"SELECT name FROM t WHERE id = 8888",
		"SELECT name FROM t WHERE id = 9999",
		"SELECT COUNT(*) FROM t",
		"SELECT COUNT(*) FROM t WHERE score = 2",
		"SELECT COUNT(*) FROM p WHERE id = 35",
		"SELECT COUNT(*) FROM p WHERE id = 36",
		"SELECT * FROM p WHERE id = 35",
		"SELECT label FROM p WHERE label = 'L5'",
		"SELECT * FROM p",
		"DELETE FROM t WHERE score = 1",
		"DELETE FROM p WHERE id = 35",
		"DELETE FROM t WHERE id = 999999",
		"SELECT COUNT(*) FROM t",
		"INSERT INTO p VALUES (35, 'back')",
		"INSERT INTO p VALUES (NULL, 'auto')",
		"INSERT INTO p VALUES (500, 'a'), (501, 'b'), (35, 'dup')",
		"INSERT INTO t VALUES (1, 'x', 1), (2, 3, 4)",
		"SELECT * FROM p WHERE id = 500",
		"SELECT COUNT(*) FROM p",
		"SELECT * FROM t WHER id = 1",
		"BANANAS",
		";",
		"SELECT * FROM nope",
		"DELETE FROM p",
		"SELECT * FROM p",
		"SELECT COUNT(*) FROM p",
		"INSERT INTO p VALUES (NULL, 'first')",
		"SELECT * FROM p;",
	)
}

// goldenRun runs the script over each backend and renders, per
// backend, every statement's Result (or error) with the cycles the
// machine stood at after it, then the allocator's Stats.
func goldenRun(t *testing.T) map[string][]string {
	out := map[string][]string{}
	for _, name := range goldenAllocators {
		m := sim.NewMachine()
		a, err := ukalloc.NewInitialized(name, m, 8<<20)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		db := New(a)
		var lines []string
		for _, stmt := range goldenScript() {
			res, err := db.Exec(stmt)
			line := fmt.Sprintf("%d %q -> ", m.CPU.Cycles(), stmt)
			if err != nil {
				line += "error: " + err.Error()
			} else {
				line += fmt.Sprintf("%#v", *res)
			}
			lines = append(lines, line)
		}
		lines = append(lines, fmt.Sprintf("stats %#v", a.Stats()), fmt.Sprintf("cycles %d", m.CPU.Cycles()))
		out[name] = lines
	}
	return out
}

// TestGuestGolden is the differential against the guest traffic the
// script made when it was recorded: what every statement returns, the
// cycles its allocator traffic costs and the state each allocator is
// left in. Only a deliberate change to what the engine allocates on
// the guest may regenerate it (go test ./internal/apps/sqldb -run
// TestGuestGolden -update).
func TestGuestGolden(t *testing.T) {
	got := goldenRun(t)
	if *updateGolden {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string][]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("%d allocators, golden has %d", len(got), len(want))
	}
	for name, lines := range got {
		if len(lines) != len(want[name]) {
			t.Errorf("%s: %d lines, golden has %d", name, len(lines), len(want[name]))
			continue
		}
		for i, l := range lines {
			if l != want[name][i] {
				t.Errorf("%s line %d diverged from the golden:\n got %s\nwant %s", name, i, l, want[name][i])
				break
			}
		}
	}
}
