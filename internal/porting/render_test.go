package porting_test

import (
	"strings"
	"testing"

	"unikraft/internal/experiments"
)

// TestRenderTable2: Table 2 renders as the tab2 experiment, one row per
// ported library with its glue code.
func TestRenderTable2(t *testing.T) {
	res, err := experiments.Run(experiments.DefaultEnv(), "tab2")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 24 {
		t.Fatalf("rows = %d, want 24", len(res.Rows))
	}
	out := res.Render()
	if !strings.Contains(out, "lib-sqlite") || !strings.Contains(out, "glue") {
		t.Fatalf("render missing fields:\n%s", out)
	}
}
