package unikraft

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// sourcePkg is one package of the module: its non-test files, parsed,
// and their types as they build for linux/amd64.
type sourcePkg struct {
	path  string      // import path
	files []*ast.File // non-test files that build for linux/amd64
	other []*ast.File // non-test files that build elsewhere (parsed, not type-checked)
	types *types.Package
	info  *types.Info
}

// sourceTree is the module's source, parsed and type-checked once.
type sourceTree struct {
	module string
	fset   *token.FileSet
	pkgs   []*sourcePkg // sorted by import path
	tests  []string     // test files, slash-separated paths from the root
}

// loadSource returns the module's source tree. The source tests share
// one load per test binary.
func loadSource(t *testing.T) *sourceTree {
	t.Helper()
	tree, err := sharedSource()
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

var sharedSource = sync.OnceValues(func() (*sourceTree, error) { return readSource(".") })

// buildContext selects files as a linux/amd64 build without cgo does,
// so the loaded tree is the same on every host.
func buildContext() build.Context {
	ctx := build.Default
	ctx.GOOS, ctx.GOARCH, ctx.CgoEnabled = "linux", "amd64", false
	return ctx
}

// readSource parses every package under root, skipping testdata and dot
// directories, and type-checks it.
func readSource(root string) (*sourceTree, error) {
	raw, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	tree := &sourceTree{fset: token.NewFileSet()}
	for _, line := range strings.Split(string(raw), "\n") {
		if m, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			tree.module = strings.TrimSpace(m)
		}
	}
	if tree.module == "" {
		return nil, fmt.Errorf("go.mod names no module")
	}
	ctx := buildContext()
	err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); p != root && (strings.HasPrefix(name, ".") || name == "testdata") {
			return filepath.SkipDir
		}
		bp, err := ctx.ImportDir(p, 0)
		if _, none := err.(*build.NoGoError); none {
			return nil
		} else if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		pkg := &sourcePkg{path: path.Join(tree.module, rel)}
		parse := func(names []string) ([]*ast.File, error) {
			var files []*ast.File
			for _, name := range names {
				if strings.HasSuffix(name, "_test.go") || !strings.HasSuffix(name, ".go") {
					continue
				}
				f, err := parser.ParseFile(tree.fset, filepath.Join(p, name), nil, parser.SkipObjectResolution)
				if err != nil {
					return nil, err
				}
				files = append(files, f)
			}
			return files, nil
		}
		for _, name := range append(bp.TestGoFiles, bp.XTestGoFiles...) {
			tree.tests = append(tree.tests, path.Join(rel, name))
		}
		if pkg.files, err = parse(bp.GoFiles); err != nil {
			return err
		}
		if pkg.other, err = parse(bp.IgnoredGoFiles); err != nil {
			return err
		}
		if len(pkg.files) > 0 {
			tree.pkgs = append(tree.pkgs, pkg)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return tree, tree.check()
}

// check type-checks every package of the tree, importing the standard
// library from the toolchain's export data.
func (tree *sourceTree) check() error {
	sort.Slice(tree.pkgs, func(i, j int) bool { return tree.pkgs[i].path < tree.pkgs[j].path })
	byPath := map[string]*sourcePkg{}
	for _, pkg := range tree.pkgs {
		byPath[pkg.path] = pkg
	}
	std := importer.Default()
	var check func(pkg *sourcePkg) error
	imp := importerFunc(func(p string) (*types.Package, error) {
		dep, ok := byPath[p]
		if !ok {
			return std.Import(p)
		}
		if err := check(dep); err != nil {
			return nil, err
		}
		return dep.types, nil
	})
	check = func(pkg *sourcePkg) error {
		if pkg.info != nil {
			return nil
		}
		pkg.info = &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		}
		conf := types.Config{Importer: imp, Sizes: types.SizesFor("gc", buildContext().GOARCH)}
		var err error
		pkg.types, err = conf.Check(pkg.path, tree.fset, pkg.files, pkg.info)
		return err
	}
	for _, pkg := range tree.pkgs {
		if err := check(pkg); err != nil {
			return err
		}
	}
	return nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
