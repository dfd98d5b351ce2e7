package experiments

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// memo is one experiment's single run in this test binary.
type memo struct {
	once sync.Once
	res  *Result
	err  error
}

var memos sync.Map // experiment id -> *memo

// inflight bounds how many experiments run at once, whatever -parallel
// says. Cluster serves stream their traces, so what a heavy
// experiment holds is its simulated guests: alone, fig14 peaks at
// 3.0 GB of RSS, cluster at 2.4-2.8 GB, chaos at 2.0 GB, overload at
// 0.7 GB, and the whole package at 3.8-4.6 GB with two in flight —
// measured on a 2-core host without -race. Under -race the package has
// run at about twice its plain peak, so a third would still crowd a
// 16 GB CI runner.
var inflight = make(chan struct{}, 2)

// result returns experiment id's live output, running it on first use.
// The shape tests and the baseline identity gate all read through it,
// so tier-1 regenerates each paper cell once however many tests judge
// it. Results are shared: tests must not modify them.
func result(t *testing.T, id string) *Result {
	t.Helper()
	v, _ := memos.LoadOrStore(id, new(memo))
	m := v.(*memo)
	m.once.Do(func() {
		inflight <- struct{}{}
		defer func() { <-inflight }()
		m.res, m.err = Run(DefaultEnv(), id)
	})
	if m.err != nil {
		t.Fatal(m.err)
	}
	return m.res
}

func loadBaseline(t *testing.T) []*Result {
	t.Helper()
	raw, err := os.ReadFile("../../BENCH_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	var baseline []*Result
	if err := json.Unmarshal(raw, &baseline); err != nil {
		t.Fatal(err)
	}
	if len(baseline) == 0 {
		t.Fatal("BENCH_baseline.json holds no experiments")
	}
	return baseline
}

// tableDiff lists every way cur departs from base — headers, then row
// count, then each differing row — and is empty only when the two
// tables agree cell for cell, in order.
func tableDiff(base, cur *Result) []string {
	if !slices.Equal(base.Headers, cur.Headers) {
		return []string{fmt.Sprintf("headers drifted:\nbaseline %v\ncurrent  %v", base.Headers, cur.Headers)}
	}
	if len(base.Rows) != len(cur.Rows) {
		return []string{fmt.Sprintf("row count drifted: baseline %d, current %d", len(base.Rows), len(cur.Rows))}
	}
	var diffs []string
	for i := range base.Rows {
		if !slices.Equal(base.Rows[i], cur.Rows[i]) {
			diffs = append(diffs, fmt.Sprintf("row %d drifted:\nbaseline %v\ncurrent  %v", i, base.Rows[i], cur.Rows[i]))
		}
	}
	return diffs
}

// TestBaselineByteIdentity: the simulator is deterministic and
// BENCH_baseline.json holds virtual-time cells only, so every entry in
// it must regenerate cell for cell — +0.0%, no tolerance, no exempt id.
// This is the one regression gate on the paper's tables: a change may
// alter how results are computed, never what they are, unless it
// refreshes the file as a declared recalibration. The subtests run in
// parallel and finish before any top-level parallel test starts, so
// they are the run the shape tests then read.
func TestBaselineByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerating baseline experiments takes minutes")
	}
	for _, base := range loadBaseline(t) {
		t.Run(base.ID, func(t *testing.T) {
			t.Parallel()
			for _, d := range tableDiff(base, result(t, base.ID)) {
				t.Error(d)
			}
		})
	}
}

// TestTableDiff keeps the one gate from going vacuous: every kind of
// drift a table can show must produce a diff, and equality must not.
func TestTableDiff(t *testing.T) {
	table := func(headers []string, rows ...[]string) *Result {
		return &Result{Headers: headers, Rows: rows}
	}
	hdr := []string{"system", "req/s"}
	a, b := []string{"unikraft-kvm", "208.2K"}, []string{"linux-kvm", "132.6K"}
	base := table(hdr, a, b)
	for _, tc := range []struct {
		name  string
		cur   *Result
		diffs int
	}{
		{"equal", table([]string{"system", "req/s"}, []string{"unikraft-kvm", "208.2K"}, []string{"linux-kvm", "132.6K"}), 0},
		{"header drift", table([]string{"system", "req/sec"}, a, b), 1},
		{"header added", table([]string{"system", "req/s", "source"}, a, b), 1},
		{"row added", table(hdr, a, b, []string{"osv-kvm", "100.0K"}), 1},
		{"row removed", table(hdr, a), 1},
		{"one character", table(hdr, []string{"unikraft-kvm", "208.3K"}, b), 1},
		{"cell added", table(hdr, a, []string{"linux-kvm", "132.6K", ""}), 1},
		{"rows reordered", table(hdr, b, a), 2},
	} {
		if got := tableDiff(base, tc.cur); len(got) != tc.diffs {
			t.Errorf("%s: %d diffs, want %d: %q", tc.name, len(got), tc.diffs, got)
		}
	}
}

// TestBaselineCoversShapeTests: an experiment important enough for a
// Test*Shape test is held at equality too. The ids come from this
// package's test source — each shape test's result(t, "id") call — so a
// new shape test is checked without anyone listing it. fig12 is the one
// exception, as it has always been outside the file; its measured GET
// configuration is zerocopy's copy row, which the file does hold.
func TestBaselineCoversShapeTests(t *testing.T) {
	gated := map[string]bool{}
	for _, base := range loadBaseline(t) {
		gated[base.ID] = true
	}
	file, err := parser.ParseFile(token.NewFileSet(), "experiments_test.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	found := 0
	for _, decl := range file.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || !strings.HasPrefix(fn.Name.Name, "Test") || !strings.HasSuffix(fn.Name.Name, "Shape") {
			continue
		}
		var ids []string
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 2 {
				return true
			}
			if name, ok := call.Fun.(*ast.Ident); ok && name.Name == "result" {
				if lit, ok := call.Args[1].(*ast.BasicLit); ok {
					id, _ := strconv.Unquote(lit.Value)
					ids = append(ids, id)
				}
			}
			return true
		})
		if len(ids) == 0 {
			t.Errorf("%s reads no experiment through result(t, id)", fn.Name.Name)
		}
		for _, id := range ids {
			found++
			if id != "fig12" && !gated[id] {
				t.Errorf("%s asserts the shape of %s, which BENCH_baseline.json does not hold", fn.Name.Name, id)
			}
		}
	}
	if found < 10 {
		t.Errorf("found %d shape-tested experiments in experiments_test.go, want at least the 10 there today", found)
	}
}
