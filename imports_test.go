package unikraft

import (
	"debug/elf"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"maps"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
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

// surfaceFile is the one list of internal/ names that only tests need:
// exported names that no non-test code outside their package reaches
// (TestExportedSurface) and functions that no program links
// (TestLinkedFunctions). A line is "<name> <reason>", the reason a test
// file that mentions the name or one of surfaceItems.
const surfaceFile = "testdata/surface.txt"

// surfaceItems are the reasons a line may give instead of a test file:
// the roadmap items whose work decides the name (25, the allocator
// API's second half; 1b, what benchmark/ forwards).
var surfaceItems = map[string]bool{"item-25": true, "item-1b": true}

// parseSurface reads surface.txt's lines into name -> reason. test
// returns a test file's source and whether the module has that test
// file. Each malformed line, repeated name, unknown reason and test file
// that does not mention its name is a problem.
func parseSurface(raw string, test func(file string) ([]byte, bool)) (listed map[string]string, problems []string) {
	listed = map[string]string{}
	var lines []string
	if raw != "" {
		lines = strings.Split(strings.TrimSuffix(raw, "\n"), "\n")
	}
	for i, line := range lines {
		name, reason, ok := strings.Cut(line, " ")
		if !ok || strings.Contains(reason, " ") {
			problems = append(problems, fmt.Sprintf("%s:%d: want \"<name> <test file | item-N>\", have %q", surfaceFile, i+1, line))
			continue
		}
		src, isTest := test(reason)
		switch {
		case listed[name] != "":
			problems = append(problems, fmt.Sprintf("%s:%d: %s listed twice", surfaceFile, i+1, name))
		case surfaceItems[reason]:
		case strings.HasPrefix(reason, "item-"):
			problems = append(problems, fmt.Sprintf("%s:%d: %s is not a reason of surfaceItems", surfaceFile, i+1, reason))
		case !isTest:
			problems = append(problems, fmt.Sprintf("%s:%d: %s is not a test file of the module", surfaceFile, i+1, reason))
		case !mentions(src, name):
			problems = append(problems, fmt.Sprintf("%s:%d: %s does not mention %s", surfaceFile, i+1, reason, name))
		}
		listed[name] = reason
	}
	return listed, problems
}

// staleSurface returns, sorted, the lines of listed whose name neither
// gate needs.
func staleSurface(listed map[string]string, needed ...[]string) []string {
	need := map[string]bool{}
	for _, names := range needed {
		for _, name := range names {
			need[name] = true
		}
	}
	var stale []string
	for name, reason := range listed {
		if !need[name] {
			stale = append(stale, name+" "+reason)
		}
	}
	sort.Strings(stale)
	return stale
}

// loadSurface parses surface.txt against the tree's test files.
func loadSurface(t *testing.T, tree *sourceTree) (listed map[string]string, problems []string) {
	t.Helper()
	raw, err := os.ReadFile(surfaceFile)
	if err != nil {
		t.Fatal(err)
	}
	return parseSurface(string(raw), func(file string) ([]byte, bool) {
		if !slices.Contains(tree.tests, file) {
			return nil, false
		}
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		return src, true
	})
}

// unlisted returns, sorted, each flagged name that listed lacks with a
// suggested test file.
func unlisted(t *testing.T, tree *sourceTree, listed map[string]string, flagged []string) []string {
	var add []string
	for _, name := range flagged {
		if listed[name] == "" {
			add = append(add, name+" "+neededBy(t, tree, name))
		}
	}
	sort.Strings(add)
	return add
}

// TestExportedSurface holds every exported name in internal/ to a use:
// each exported package-level name and method of an internal package
// (test-helper packages exempt) is reachable, or it is listed in
// testdata/surface.txt with a test file that needs it. A name that only
// its own package uses is unexported; one that nothing uses is deleted.
// The rule is exportedSurface's. It also checks the list's lines;
// TestLinkedFunctions, which knows both gates' names, finds stale ones.
func TestExportedSurface(t *testing.T) {
	tree := loadSource(t)
	total, names := exportedSurface(tree)
	t.Logf("%d exported names and methods in internal/, %d reachable", total, total-len(names))
	listed, problems := loadSurface(t, tree)
	for _, p := range problems {
		t.Error(p)
	}
	if add := unlisted(t, tree, listed, names); len(add) > 0 {
		t.Errorf("exported names that no non-test code outside their package reaches: unexport or delete each, "+
			"or add its line to %s and declare it in CHANGES.md:\n%s", surfaceFile, strings.Join(add, "\n"))
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

// mentions reports whether src, a test file's source, refers to a
// surface name as code outside its package must: a package-level name
// qualified by its package (vfscore.OAppend), a method as a selector
// (.Write).
func mentions(src []byte, name string) bool {
	pkg, rest, _ := strings.Cut(path.Base(name), ".")
	ref := `\b` + pkg + `\.` + rest
	if i := strings.LastIndex(rest, "."); i >= 0 {
		ref = `\.` + rest[i+1:]
	}
	return regexp.MustCompile(ref + `\b`).Match(src)
}

// neededBy suggests a test file for a surface name: the first that
// mentions it, one outside the name's directory before one inside.
func neededBy(t *testing.T, tree *sourceTree, name string) string {
	dir, _, _ := strings.Cut(name, ".")
	inside := "?"
	for _, f := range tree.tests {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if mentions(src, name) {
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

// linkedFuncs builds every main package of the module (the commands,
// the examples and the benchmark harness) in one go build and returns the
// funcKey of each function that some binary's symbol table holds. The
// build is for linux/amd64 without cgo or the race detector, the files
// buildContext parses, and inlining is off in the module's packages, so
// a function a program calls is linked whole. The source tests share
// one build per test binary.
var linkedFuncs = sync.OnceValues(func() (map[string]bool, error) {
	tree, err := sharedSource()
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "linked")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	args := []string{"build", "-gcflags=" + tree.module + "/...=-l", "-o", dir + string(filepath.Separator)}
	for _, pkg := range tree.pkgs {
		if pkg.types.Name() == "main" {
			args = append(args, pkg.path)
		}
	}
	cmd := exec.Command("go", args...)
	cmd.Env = append(os.Environ(), "GOOS=linux", "GOARCH=amd64", "CGO_ENABLED=0")
	if out, err := cmd.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	bins, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	linked := map[string]bool{}
	for _, bin := range bins {
		f, err := elf.Open(filepath.Join(dir, bin.Name()))
		if err != nil {
			return nil, err
		}
		syms, err := f.Symbols()
		f.Close()
		if err != nil {
			return nil, err
		}
		for _, sym := range syms {
			if elf.ST_TYPE(sym.Info) == elf.STT_FUNC {
				if key := funcKey(tree.module, sym.Name); key != "" {
					linked[key] = true
				}
			}
		}
	}
	return linked, nil
})

// funcKey names a function symbol of the module as surface.txt does:
// the package's directory, then the receiver's type name without its
// pointer or type arguments, then the name, so
// unikraft/internal/netstack.(*fifo[go.shape.uint8]).Push is
// internal/netstack.fifo.Push. It returns "" for symbols outside the
// module and for those no declaration names: closures (F.func1), go and
// defer wrappers, method values (M-fm) and init functions.
func funcKey(module, sym string) string {
	rest, ok := strings.CutPrefix(sym, module+"/")
	if !ok {
		return ""
	}
	var b strings.Builder
	depth := 0
	for _, r := range rest {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0 && r != '(' && r != ')' && r != '*':
			b.WriteRune(r)
		}
	}
	key := b.String()
	_, name, _ := strings.Cut(key[strings.LastIndex(key, "/")+1:], ".")
	parts := strings.Split(name, ".")
	if name == "" || len(parts) > 2 || strings.Contains(name, "-") || generated.MatchString(parts[len(parts)-1]) {
		return ""
	}
	return key
}

// generated matches the last element of a symbol the compiler names
// after the function that holds it.
var generated = regexp.MustCompile(`^((func|gowrap|deferwrap)[0-9]+|[0-9]+)$`)

// unlinkedFuncs counts the non-test functions and methods of the gated
// packages (init functions aside) and returns, sorted, the surface
// names of those linked lacks, with their lines.
func unlinkedFuncs(tree *sourceTree, linked map[string]bool) (total int, unlinked []string, lines int) {
	for _, pkg := range tree.pkgs {
		if !gatedPkg(tree, pkg) {
			continue
		}
		for _, f := range pkg.files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Name.Name == "init" || fd.Name.Name == "_" {
					continue
				}
				total++
				if name := surfaceName(tree, pkg.info.Defs[fd.Name]); !linked[name] {
					unlinked = append(unlinked, name)
					lines += tree.fset.Position(fd.End()).Line - tree.fset.Position(fd.Pos()).Line + 1
				}
			}
		}
	}
	sort.Strings(unlinked)
	return total, unlinked, lines
}

// TestLinkedFunctions holds internal/ to what the programs link: every
// non-test function and method of an internal package (test-helper
// packages exempt) is in some main program's binary, or it is listed in
// testdata/surface.txt with a test file that needs it or the roadmap
// item that decides it. A function only tests call moves into its
// package's _test.go files; one nothing calls is deleted. Stale lines of
// the list, needed by neither gate, fail here.
func TestLinkedFunctions(t *testing.T) {
	tree := loadSource(t)
	linked, err := linkedFuncs()
	if err != nil {
		t.Fatal(err)
	}
	total, unlinked, lines := unlinkedFuncs(tree, linked)
	t.Logf("%d functions and methods in internal/, %d linked by no program (%d lines)", total, len(unlinked), lines)
	listed, _ := loadSurface(t, tree) // TestExportedSurface reports the list's problems
	if add := unlisted(t, tree, listed, unlinked); len(add) > 0 {
		t.Errorf("functions of internal/ that no program links: delete each, move it into its package's _test.go files, "+
			"or add its line to %s and declare it in CHANGES.md:\n%s", surfaceFile, strings.Join(add, "\n"))
	}
	_, unreached := exportedSurface(tree)
	if stale := staleSurface(listed, unreached, unlinked); len(stale) > 0 {
		t.Errorf("lines of %s whose name neither gate needs: remove them:\n%s", surfaceFile, strings.Join(stale, "\n"))
	}
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

// TestLinkedFunctionsRules holds TestLinkedFunctions' parts to their
// rules: funcKey's mapping of symbols to surface names, unlinkedFuncs'
// naming of declarations on a small in-memory module, the parse of
// build-tagged files as the build selects them, and the list parser.
func TestLinkedFunctionsRules(t *testing.T) {
	t.Run("symbol mapping", func(t *testing.T) {
		for _, tc := range []struct{ sym, want string }{
			{"m/internal/a.F", "internal/a.F"},
			{"m/internal/a/b.F", "internal/a/b.F"},
			{"m/internal/a.T.V", "internal/a.T.V"},
			{"m/internal/a.(*T).P", "internal/a.T.P"},
			{"m/internal/a.(*fifo[go.shape.uint8]).Push", "internal/a.fifo.Push"},
			{"m/internal/a.(*fifo[go.shape.struct { m/internal/a.x []int }]).Len", "internal/a.fifo.Len"},
			{"m/internal/a.fifo[m/internal/a.seg].Len", "internal/a.fifo.Len"},
			{"m/internal/a.Map[go.shape.int,go.shape.string]", "internal/a.Map"},
			{"m/internal/a.F.func1", ""},
			{"m/internal/a.(*T).M.func2.1", ""},
			{"m/internal/a.F.deferwrap1", ""},
			{"m/internal/a.F.gowrap2", ""},
			{"m/internal/a.(*T).M-fm", ""},
			{"m/internal/a.init.0", ""},
			{"m.F", ""},
			{"mx/internal/a.F", ""},
			{"fmt.Println", ""},
		} {
			if got := funcKey("m", tc.sym); got != tc.want {
				t.Errorf("funcKey(%q) = %q, want %q", tc.sym, got, tc.want)
			}
		}
	})

	t.Run("declarations", func(t *testing.T) {
		tree := &sourceTree{module: "m", fset: token.NewFileSet()}
		for _, file := range []struct{ dir, src string }{
			{"internal/a", "package a\ntype T struct{}\nfunc (T) V() {}\nfunc (*T) P() {}\nfunc (T) Dead() {}\n" +
				"type fifo[E any] struct{ s []E }\nfunc (f *fifo[E]) Push(e E) { f.s = append(f.s, e) }\nfunc (f fifo[E]) Len() int { return len(f.s) }\n" +
				"func F() { func() {}() }\nfunc G() {}\nfunc init() {}\nfunc _() {}"},
			{"internal/atest", "package atest\nfunc Helper() {}"},
			{"internal/b", "package b\nfunc H() {}"},
		} {
			f, err := parser.ParseFile(tree.fset, file.dir+"/x.go", file.src, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			tree.pkgs = append(tree.pkgs, &sourcePkg{path: "m/" + file.dir, files: []*ast.File{f}})
		}
		if err := tree.check(); err != nil {
			t.Fatal(err)
		}
		linked := map[string]bool{}
		for _, sym := range []string{"m/internal/a.T.V", "m/internal/a.(*T).P", "m/internal/a.(*fifo[go.shape.int]).Push",
			"m/internal/a.fifo[go.shape.int].Len", "m/internal/a.F.func1", "m/internal/a.G", "m/internal/a.init.0"} {
			if key := funcKey("m", sym); key != "" {
				linked[key] = true
			}
		}
		total, got, lines := unlinkedFuncs(tree, linked)
		want := []string{"internal/a.F", "internal/a.T.Dead", "internal/b.H"}
		if total != 8 || !slices.Equal(got, want) || lines != 3 {
			t.Errorf("unlinkedFuncs = %d, %q, %d lines; want 8, %q, 3", total, got, lines, want)
		}
	})

	t.Run("build-tagged files", func(t *testing.T) {
		dir := t.TempDir()
		for name, src := range map[string]string{
			"go.mod":                        "module m\n",
			"internal/a/arena.go":           "package a\nfunc New() []byte { return arenaMem(1) }",
			"internal/a/arena_mmap.go":      "//go:build linux && !race\n\npackage a\nfunc arenaMem(n int) []byte { return mapped(n) }\nfunc mapped(n int) []byte { return make([]byte, n) }",
			"internal/a/arena_heap.go":      "//go:build !linux || race\n\npackage a\nfunc arenaMem(n int) []byte { return make([]byte, n) }",
			"internal/a/arena_windows.go":   "package a\nfunc windowsOnly() {}",
			"internal/a/arena_mmap_test.go": "package a\nfunc testOnly() {}",
		} {
			p := filepath.Join(dir, filepath.FromSlash(name))
			if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		tree, err := readSource(dir)
		if err != nil {
			t.Fatal(err)
		}
		_, got, _ := unlinkedFuncs(tree, map[string]bool{"internal/a.New": true})
		if want := []string{"internal/a.arenaMem", "internal/a.mapped"}; !slices.Equal(got, want) {
			t.Errorf("unlinked %q, want %q: the linux/amd64 files without race, as the gate builds", got, want)
		}
	})

	t.Run("list", func(t *testing.T) {
		tests := map[string]string{
			"internal/a/a_test.go": "package a\nfunc TestF(t *testing.T) { F(); var x T; x.M() }",
			"internal/b/b_test.go": "package b\nfunc TestG(t *testing.T) { a.G(); var x a.T; x.M() }",
		}
		test := func(file string) ([]byte, bool) {
			src, ok := tests[file]
			return []byte(src), ok
		}
		for _, tc := range []struct {
			name, lines string
			problem     string // a substring of the one problem, or "" for none
		}{
			{"method by selector in its own package", "internal/a.T.M internal/a/a_test.go\n", ""},
			{"method by selector", "internal/a.T.M internal/b/b_test.go\ninternal/a.T.M2 internal/a/a_test.go\n", "does not mention internal/a.T.M2"},
			{"package-level name qualified outside", "internal/a.G internal/b/b_test.go\n", ""},
			{"test file that does not mention its name", "internal/a.G internal/a/a_test.go\n", "internal/a/a_test.go does not mention internal/a.G"},
			{"package-level name unqualified", "internal/a.F internal/a/a_test.go\n", "does not mention internal/a.F"},
			{"item reasons", "internal/a.F item-25\ninternal/a.G item-1b\n", ""},
			{"unknown reason token", "internal/a.F item-7\n", "item-7 is not a reason"},
			{"not a test file", "internal/a.F internal/a/a.go\n", "is not a test file"},
			{"no reason", "internal/a.F\n", "want \"<name>"},
			{"listed twice", "internal/a.F item-25\ninternal/a.F internal/a/a_test.go\n", "listed twice"},
		} {
			_, problems := parseSurface(tc.lines, test)
			if tc.problem == "" && len(problems) > 0 || tc.problem != "" && (len(problems) != 1 || !strings.Contains(problems[0], tc.problem)) {
				t.Errorf("%s: problems %q, want one with %q", tc.name, problems, tc.problem)
			}
		}
		listed, _ := parseSurface("internal/a.F item-25\ninternal/a.G internal/b/b_test.go\ninternal/a.T.M internal/b/b_test.go\n", test)
		stale := staleSurface(listed, []string{"internal/a.F"}, []string{"internal/a.T.M", "internal/a.Other"})
		if want := []string{"internal/a.G internal/b/b_test.go"}; !slices.Equal(stale, want) {
			t.Errorf("stale %q, want %q: a line is stale when neither gate needs its name", stale, want)
		}
	})
}
