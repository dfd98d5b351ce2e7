package sim

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"strings"
	"testing"
)

// costSection is the ARCHITECTURE.md section that prints the cost table.
const costSection = "## How costs flow into measured numbers"

// TestArchitectureCostTable holds ARCHITECTURE.md's cost section to the
// table itself: the section must contain every row, rendered from
// costs, in CostID order.
func TestArchitectureCostTable(t *testing.T) {
	want := renderCostTable(t)
	raw, err := os.ReadFile("../../ARCHITECTURE.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	start := strings.Index(doc, costSection)
	if start < 0 {
		t.Fatalf("ARCHITECTURE.md has no %q section", costSection)
	}
	section := doc[start+len(costSection):]
	if end := strings.Index(section, "\n## "); end >= 0 {
		section = section[:end]
	}
	if !strings.Contains(section, want) {
		t.Errorf("ARCHITECTURE.md %q does not hold the cost table; it should read:\n\n%s", costSection, want)
	}
}

// renderCostTable renders costs as a markdown table, naming each row by
// its CostID constant as declared in costs.go.
func renderCostTable(t *testing.T) string {
	f, err := parser.ParseFile(token.NewFileSet(), "costs.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, decl := range f.Decls {
		if gd, ok := decl.(*ast.GenDecl); ok && gd.Tok == token.CONST {
			for _, spec := range gd.Specs {
				for _, name := range spec.(*ast.ValueSpec).Names {
					if strings.HasPrefix(name.Name, "Cost") {
						names = append(names, name.Name)
					}
				}
			}
		}
	}
	if len(names) != int(numCosts) {
		t.Fatalf("costs.go declares %d CostIDs, want %d", len(names), numCosts)
	}
	var b strings.Builder
	b.WriteString("| id | layer | cycles | per | unit | source |\n|---|---|---:|---:|---|---|\n")
	for id, name := range names {
		c := costs[id]
		fmt.Fprintf(&b, "| `%s` | %v | %d | %d | %s | %s |\n", name, c.layer, c.cycles, c.per, c.unit, c.source)
	}
	return b.String()
}
