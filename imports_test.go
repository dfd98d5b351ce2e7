package unikraft

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"maps"
	"os"
	"path"
	"regexp"
	"slices"
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
	tree := loadSource(t)
	internal := map[string]bool{} // import path -> imported from outside
	for _, pkg := range tree.pkgs {
		if _, seen := internal[pkg.path]; !seen && tree.internalPkg(pkg.path) {
			internal[pkg.path] = false
		}
		for _, f := range append(pkg.files, pkg.other...) {
			for _, imp := range f.Imports {
				dep, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					t.Fatal(err)
				}
				if dep != pkg.path && tree.internalPkg(dep) {
					internal[dep] = true
				}
			}
		}
	}
	if len(internal) == 0 {
		t.Fatal("found no internal packages")
	}
	var unreached []string
	for pkg, imported := range internal {
		if !imported && !helperPkg(pkg) {
			unreached = append(unreached, pkg)
		}
	}
	sort.Strings(unreached)
	for _, pkg := range unreached {
		t.Errorf("%s is imported by no non-test file outside it: delete it or give it a caller", pkg)
	}
}

// surfaceFile lists the exported names of internal/ that no non-test
// code outside their package reaches, each with a test file that needs
// it.
const surfaceFile = "testdata/surface.txt"

// TestExportedSurface holds every exported name in internal/ to a use:
// each exported package-level name and method of an internal package
// (test-helper packages exempt) is reachable, or it is listed in
// testdata/surface.txt with a test file that needs it. A name that only
// its own package uses is unexported; one that nothing uses is deleted.
// The rule is exportedSurface's.
func TestExportedSurface(t *testing.T) {
	tree := loadSource(t)
	total, names := exportedSurface(tree)
	unreached := map[string]bool{}
	for _, name := range names {
		unreached[name] = true
	}
	t.Logf("%d exported names and methods in internal/, %d reachable", total, total-len(names))

	raw, err := os.ReadFile(surfaceFile)
	if err != nil {
		t.Fatal(err)
	}
	tests := map[string]bool{}
	for _, f := range tree.tests {
		tests[f] = true
	}
	listed := map[string]bool{}
	var remove []string
	var lines []string
	if len(raw) > 0 {
		lines = strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	}
	for i, line := range lines {
		name, file, ok := strings.Cut(line, " ")
		switch {
		case !ok || strings.Contains(file, " "):
			t.Errorf("%s:%d: want \"<name> <test file>\", have %q", surfaceFile, i+1, line)
		case listed[name]:
			t.Errorf("%s:%d: %s listed twice", surfaceFile, i+1, name)
		case !tests[file]:
			t.Errorf("%s:%d: %s is not a test file of the module", surfaceFile, i+1, file)
		case !mentions(t, file, name):
			t.Errorf("%s:%d: %s does not mention %s", surfaceFile, i+1, file, name)
		}
		listed[name] = true
		if !unreached[name] {
			remove = append(remove, line)
		}
	}
	var add []string
	for name := range unreached {
		if !listed[name] {
			add = append(add, name+" "+neededBy(t, tree, name))
		}
	}
	sort.Strings(add)
	if len(add) > 0 {
		t.Errorf("exported names that no non-test code outside their package reaches: unexport or delete each, "+
			"or add its line to %s and declare it in CHANGES.md:\n%s", surfaceFile, strings.Join(add, "\n"))
	}
	if len(remove) > 0 {
		t.Errorf("lines of %s whose name is reachable or gone: remove them:\n%s", surfaceFile, strings.Join(remove, "\n"))
	}
}

// surfaceName names an exported object as surface.txt does: the
// package's directory, then the name, a method qualified by its
// receiver's type name (internal/netstack.TCPConn.Write).
func surfaceName(tree *sourceTree, obj types.Object) string {
	name := obj.Name()
	if fn, ok := obj.(*types.Func); ok && fn.Signature().Recv() != nil {
		name = receiverName(fn).Obj().Name() + "." + name
	}
	return strings.TrimPrefix(obj.Pkg().Path(), tree.module+"/") + "." + name
}

// mentions reports whether file refers to a surface name as code
// outside its package must: a package-level name qualified by its
// package (vfscore.OAppend), a method as a selector (.Write).
func mentions(t *testing.T, file, name string) bool {
	raw, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	pkg, rest, _ := strings.Cut(path.Base(name), ".")
	ref := `\b` + pkg + `\.` + rest
	if i := strings.LastIndex(rest, "."); i >= 0 {
		ref = `\.` + rest[i+1:]
	}
	return regexp.MustCompile(ref + `\b`).Match(raw)
}

// neededBy suggests a test file for a surface name: the first that
// mentions it, one outside the name's directory before one inside.
func neededBy(t *testing.T, tree *sourceTree, name string) string {
	dir, _, _ := strings.Cut(name, ".")
	inside := "?"
	for _, f := range tree.tests {
		if mentions(t, f, name) {
			if path.Dir(f) != dir {
				return f
			}
			if inside == "?" {
				inside = f
			}
		}
	}
	return inside
}

// exportedSurface counts the exported package-level names and methods
// of the module's internal packages (test-helper packages exempt) and
// returns, sorted, the surface names of those not reachable. A name is
// reachable when
//   - a non-test file outside its package refers to it;
//   - it is a method that satisfies an interface the module's non-test
//     code uses, or fmt.Stringer or error;
//   - it is a type named in the signature or exported fields of a
//     reachable name;
//   - it is a constant of a reachable named type; or
//   - it is an error variable that its package returns.
func exportedSurface(tree *sourceTree) (total int, unreached []string) {
	var names []types.Object
	constsOf := map[*types.TypeName][]types.Object{}
	for _, pkg := range tree.pkgs {
		if !gatedPkg(tree, pkg) {
			continue
		}
		scope := pkg.types.Scope()
		for _, n := range scope.Names() {
			obj := scope.Lookup(n)
			if !obj.Exported() {
				continue
			}
			names = append(names, obj)
			if named, ok := obj.Type().(*types.Named); ok {
				if _, ok := obj.(*types.Const); ok {
					constsOf[named.Obj()] = append(constsOf[named.Obj()], obj)
				}
				if _, ok := obj.(*types.TypeName); ok {
					for m := range named.Methods() {
						if m.Exported() {
							names = append(names, m)
						}
					}
				}
			}
		}
	}
	candidate := map[types.Object]bool{}
	for _, obj := range names {
		candidate[obj] = true
	}
	reached := map[types.Object]bool{}
	var work []types.Object
	reach := func(obj types.Object) {
		if candidate[obj] && !reached[obj] {
			reached[obj] = true
			work = append(work, obj)
		}
	}

	errorType := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	stringer := types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, "String",
		types.NewSignatureType(nil, nil, nil, nil, types.NewTuple(types.NewParam(token.NoPos, nil, "", types.Typ[types.String])), false))}, nil)
	ifaces := map[string][]*types.Interface{} // method name -> interfaces that have it
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok {
			for m := range it.Methods() {
				ifaces[m.Name()] = append(ifaces[m.Name()], it)
			}
		}
	}
	addIface(errorType)
	addIface(stringer.Complete())
	seen := map[types.Type]bool{}
	for _, pkg := range tree.pkgs {
		for _, obj := range pkg.info.Uses {
			if obj.Pkg() != nil && obj.Pkg() != pkg.types {
				reach(obj)
			}
		}
		for _, tv := range pkg.info.Types {
			if tv.Type != nil && !seen[tv.Type] {
				seen[tv.Type] = true
				addIface(tv.Type)
			}
		}
		if !gatedPkg(tree, pkg) {
			continue
		}
		for _, f := range pkg.files {
			ast.Inspect(f, func(n ast.Node) bool {
				ret, ok := n.(*ast.ReturnStmt)
				if !ok {
					return true
				}
				for _, r := range ret.Results {
					ast.Inspect(r, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							if v, ok := pkg.info.Uses[id].(*types.Var); ok && v.Parent() == pkg.types.Scope() && types.Implements(v.Type(), errorType) {
								reach(v)
							}
						}
						return true
					})
				}
				return false
			})
		}
	}
	for _, obj := range names {
		fn, ok := obj.(*types.Func)
		if !ok || fn.Signature().Recv() == nil {
			continue
		}
		named := receiverName(fn)
		for _, it := range ifaces[fn.Name()] {
			if types.Implements(named, it) || types.Implements(types.NewPointer(named), it) {
				reach(fn)
				break
			}
		}
	}

	var walk func(t types.Type)
	walk = func(t types.Type) {
		switch t := t.(type) {
		case *types.Named:
			reach(t.Obj())
		case *types.Pointer:
			walk(t.Elem())
		case *types.Slice:
			walk(t.Elem())
		case *types.Array:
			walk(t.Elem())
		case *types.Chan:
			walk(t.Elem())
		case *types.Map:
			walk(t.Key())
			walk(t.Elem())
		case *types.Tuple:
			for v := range t.Variables() {
				walk(v.Type())
			}
		case *types.Signature:
			walk(t.Params())
			walk(t.Results())
		case *types.Struct:
			for f := range t.Fields() {
				if f.Exported() {
					walk(f.Type())
				}
			}
		case *types.Interface:
			for i := range t.NumEmbeddeds() {
				walk(t.EmbeddedType(i))
			}
			for m := range t.ExplicitMethods() {
				walk(m.Type())
			}
		}
	}
	for len(work) > 0 {
		obj := work[len(work)-1]
		work = work[:len(work)-1]
		if tn, ok := obj.(*types.TypeName); ok {
			walk(tn.Type().Underlying())
			for _, c := range constsOf[tn] {
				reach(c)
			}
		} else {
			walk(obj.Type())
		}
	}
	for _, obj := range names {
		if !reached[obj] {
			unreached = append(unreached, surfaceName(tree, obj))
		}
	}
	sort.Strings(unreached)
	return len(names), unreached
}

// receiverName is the named type a method is declared on.
func receiverName(fn *types.Func) *types.Named {
	t := fn.Signature().Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named)
}

// internalPkg reports whether the import path lies under the module's
// internal/.
func (tree *sourceTree) internalPkg(p string) bool {
	return strings.HasPrefix(p, tree.module+"/internal/")
}

// helperPkg reports whether the import path names a test-helper
// package (alloctest, simtest), which only tests import.
func helperPkg(p string) bool { return strings.HasSuffix(path.Base(p), "test") }

// gatedPkg reports whether TestExportedSurface covers pkg's names.
func gatedPkg(tree *sourceTree, pkg *sourcePkg) bool {
	return tree.internalPkg(pkg.path) && !helperPkg(pkg.path)
}

// TestExportedSurfaceRules holds exportedSurface to each of its rules
// on small in-memory modules: in each, the root package is the outside
// caller and want lists every name the gate must flag.
func TestExportedSurfaceRules(t *testing.T) {
	for _, tc := range []struct {
		name  string
		files map[string]string
		want  []string
	}{
		{
			name: "dead function",
			files: map[string]string{
				"internal/a/a.go": "package a\nfunc Used() {}\nfunc Dead() {}\nfunc Own() {}\nfunc init() { Own() }",
				"m.go":            "package m\nimport \"m/internal/a\"\nvar _ = a.Used",
			},
			want: []string{"internal/a.Dead", "internal/a.Own"},
		},
		{
			name: "method satisfying a used interface",
			files: map[string]string{
				"internal/a/a.go": "package a\ntype Runner interface{ Run() }\ntype T struct{}\nfunc (T) Run() {}\nfunc (T) Idle() {}\n" +
					"func (T) String() string { return \"\" }\nfunc Use(r Runner) { r.Run() }\nfunc Make() T { return T{} }",
				"m.go": "package m\nimport \"m/internal/a\"\nfunc F() { a.Use(a.Make()) }",
			},
			want: []string{"internal/a.T.Idle"},
		},
		{
			name: "type in a reachable signature or exported field",
			files: map[string]string{
				"internal/a/a.go": "package a\ntype Opt struct{ In *Inner; hidden Hidden }\ntype Inner []map[string]Leaf\ntype Leaf int\n" +
					"type Hidden int\ntype Unused int\nfunc Do(Opt) (func(Callback), error) { return nil, nil }\ntype Callback int",
				"m.go": "package m\nimport \"m/internal/a\"\nvar _ = a.Do",
			},
			want: []string{"internal/a.Hidden", "internal/a.Unused"},
		},
		{
			name: "returned error sentinel",
			files: map[string]string{
				"internal/a/a.go": "package a\nimport (\"errors\"; \"fmt\")\nvar ErrX = errors.New(\"x\")\nvar ErrW = errors.New(\"w\")\n" +
					"var ErrY = errors.New(\"y\")\nvar ErrZ = errors.New(\"z\")\n" +
					"func F(n int) error { if n > 0 { return fmt.Errorf(\"f: %w\", ErrW) }; err := ErrY; _ = err; return ErrX }",
				"m.go": "package m\nimport \"m/internal/a\"\nvar _ = a.F",
			},
			want: []string{"internal/a.ErrY", "internal/a.ErrZ"},
		},
		{
			name: "constant of a reachable type",
			files: map[string]string{
				"internal/a/a.go": "package a\ntype Mode int\nconst (\n\tFast Mode = iota\n\tSlow\n)\nconst Plain = 3\nfunc Set(Mode) {}",
				"m.go":            "package m\nimport \"m/internal/a\"\nvar _ = a.Set",
			},
			want: []string{"internal/a.Plain"},
		},
		{
			name: "test-helper package",
			files: map[string]string{
				"internal/a/a.go":         "package a\nfunc Used() {}",
				"internal/atest/atest.go": "package atest\nfunc Helper() {}",
				"m.go":                    "package m\nimport \"m/internal/a\"\nvar _ = a.Used",
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tree := &sourceTree{module: "m", fset: token.NewFileSet()}
			byDir := map[string]*sourcePkg{}
			for _, name := range slices.Sorted(maps.Keys(tc.files)) {
				f, err := parser.ParseFile(tree.fset, name, tc.files[name], parser.SkipObjectResolution)
				if err != nil {
					t.Fatal(err)
				}
				dir := path.Dir(name)
				if byDir[dir] == nil {
					byDir[dir] = &sourcePkg{path: path.Join(tree.module, dir)}
					tree.pkgs = append(tree.pkgs, byDir[dir])
				}
				byDir[dir].files = append(byDir[dir].files, f)
			}
			if err := tree.check(); err != nil {
				t.Fatal(err)
			}
			if _, got := exportedSurface(tree); !slices.Equal(got, tc.want) {
				t.Errorf("flagged %q, want %q", got, tc.want)
			}
		})
	}
}
