package unikraft

import (
	"go/ast"
	"go/token"
	"regexp"
	"testing"
)

// costName matches a constant that holds a price.
var costName = regexp.MustCompile(`(?i)cost|cycles`)

// TestPricesLiveInSim holds every simulated price to one table: outside
// internal/sim (and the benchmark harness, which keeps its own
// workload shapes) no package-level constant is named like a cost, no
// Charge/charge call takes a number literal, and no code calls a
// Charge or ChargeDuration method at all. A price is a row of sim's
// cost table, a charge site names its row (Pay) or its layer (Spend),
// and so every cycle lands on a layer of the machine's ledger.
func TestPricesLiveInSim(t *testing.T) {
	tree := loadSource(t)
	for _, pkg := range tree.pkgs {
		if pkg.path == tree.module+"/benchmark" || pkg.path == tree.module+"/internal/sim" {
			continue
		}
		for _, f := range append(pkg.files, pkg.other...) {
			checkPrices(t, tree.fset, f)
		}
	}
}

// checkPrices reports f's cost-named constants, literal charges and
// unnamed Charge calls.
func checkPrices(t *testing.T, fset *token.FileSet, f *ast.File) {
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, spec := range gd.Specs {
			for _, name := range spec.(*ast.ValueSpec).Names {
				if costName.MatchString(name.Name) {
					t.Errorf("%s: constant %s is a price: make it a row of sim's cost table", fset.Position(name.Pos()), name.Name)
				}
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && (sel.Sel.Name == "Charge" || sel.Sel.Name == "ChargeDuration") {
			t.Errorf("%s: %s names no row or layer: Pay a row or Spend a layer", fset.Position(call.Pos()), sel.Sel.Name)
		}
		if !isChargeCall(call) {
			return true
		}
		literal := false
		for _, arg := range call.Args {
			ast.Inspect(arg, func(n ast.Node) bool {
				if lit, ok := n.(*ast.BasicLit); ok && (lit.Kind == token.INT || lit.Kind == token.FLOAT) {
					literal = true
				}
				return !literal
			})
		}
		if literal {
			t.Errorf("%s: charge of a number literal: name a row of sim's cost table", fset.Position(call.Pos()))
		}
		return true
	})
}

// isChargeCall reports whether call invokes a function or method named
// Charge or charge.
func isChargeCall(call *ast.CallExpr) bool {
	var name string
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		name = fn.Name
	case *ast.SelectorExpr:
		name = fn.Sel.Name
	}
	return name == "Charge" || name == "charge"
}
