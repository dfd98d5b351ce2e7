package unikraft

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestInternalPackagesImported holds the repository to the paper's
// first rule, "include only relevant components": every internal
// package with non-test Go files is imported by a non-test file outside
// it, so a package that only its own tests reach is deleted instead of
// carried. Test-helper packages (named *test, e.g. alloctest) are
// imported by tests alone and are exempt.
func TestInternalPackagesImported(t *testing.T) {
	raw, err := os.ReadFile("go.mod")
	if err != nil {
		t.Fatal(err)
	}
	var module string
	for _, line := range strings.Split(string(raw), "\n") {
		if m, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			module = strings.TrimSpace(m)
		}
	}
	if module == "" {
		t.Fatal("go.mod names no module")
	}

	internal := map[string]bool{} // import path -> imported from outside
	fset := token.NewFileSet()
	err = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); p != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		pkg := path.Join(module, filepath.ToSlash(filepath.Dir(p)))
		if _, seen := internal[pkg]; !seen && strings.HasPrefix(pkg, module+"/internal/") {
			internal[pkg] = false
		}
		f, err := parser.ParseFile(fset, p, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			dep, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				return err
			}
			if dep != pkg && strings.HasPrefix(dep, module+"/internal/") {
				internal[dep] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(internal) == 0 {
		t.Fatal("found no internal packages")
	}
	var unreached []string
	for pkg, imported := range internal {
		if !imported && !strings.HasSuffix(path.Base(pkg), "test") {
			unreached = append(unreached, pkg)
		}
	}
	sort.Strings(unreached)
	for _, pkg := range unreached {
		t.Errorf("%s is imported by no non-test file outside it: delete it or give it a caller", pkg)
	}
}
