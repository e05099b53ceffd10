package fmeter

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/lint"
)

var updateSurface = flag.Bool("update", false, "rewrite testdata/surface.golden from the source")

// flagNameArg maps the flag-package registration calls to the position
// of their name argument.
var flagNameArg = map[string]int{
	"Bool": 0, "Duration": 0, "Float64": 0, "Int": 0, "Int64": 0, "String": 0, "Uint": 0, "Uint64": 0,
	"Func": 0, "BoolFunc": 0,
	"BoolVar": 1, "DurationVar": 1, "Float64Var": 1, "IntVar": 1, "Int64Var": 1, "StringVar": 1,
	"UintVar": 1, "Uint64Var": 1, "TextVar": 1, "Var": 1,
}

// TestSurfaceFrozen holds the configuration surface — every exported
// identifier (and exported struct field) declared in fmeter.go, every
// field of serve.Config, every flag of every binary — to the committed
// testdata/surface.golden, so the standing "no new Option, Set*,
// ServeConfig field or flag without a workload on which it wins" rule
// (ROADMAP) fails a build instead of relying on review. A deliberate
// change reruns with -update and shows up in the diff.
func TestSurfaceFrozen(t *testing.T) {
	fset := token.NewFileSet()
	parse := func(path string) *ast.File {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	var lines []string
	add := func(format string, args ...any) { lines = append(lines, fmt.Sprintf(format, args...)) }
	fields := func(prefix string, st *ast.StructType) {
		for _, f := range st.Fields.List {
			for _, n := range f.Names {
				if n.IsExported() {
					add("%s.%s", prefix, n.Name)
				}
			}
		}
	}

	for _, d := range parse("fmeter.go").Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() {
				continue
			}
			if d.Recv == nil {
				add("fmeter.go func %s", d.Name.Name)
				continue
			}
			recv := d.Recv.List[0].Type
			if star, ok := recv.(*ast.StarExpr); ok {
				recv = star.X
			}
			add("fmeter.go method %s.%s", recv.(*ast.Ident).Name, d.Name.Name)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					if !spec.Name.IsExported() {
						continue
					}
					add("fmeter.go type %s", spec.Name.Name)
					if st, ok := spec.Type.(*ast.StructType); ok {
						fields("fmeter.go field "+spec.Name.Name, st)
					}
				case *ast.ValueSpec:
					for _, n := range spec.Names {
						if n.IsExported() {
							add("fmeter.go %s %s", d.Tok, n.Name)
						}
					}
				}
			}
		}
	}

	ast.Inspect(parse("internal/serve/server.go"), func(n ast.Node) bool {
		if ts, ok := n.(*ast.TypeSpec); ok && ts.Name.Name == "Config" {
			fields("serve.Config", ts.Type.(*ast.StructType))
		}
		return true
	})

	mains, err := filepath.Glob("cmd/*/main.go")
	if err != nil || len(mains) == 0 {
		t.Fatalf("no cmd/*/main.go found: %v", err)
	}
	for _, path := range mains {
		bin := filepath.Base(filepath.Dir(path))
		ast.Inspect(parse(path), func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			arg, ok := flagNameArg[sel.Sel.Name]
			if !ok || len(call.Args) <= arg {
				return true
			}
			if lit, ok := call.Args[arg].(*ast.BasicLit); ok && lit.Kind == token.STRING {
				name, _ := strconv.Unquote(lit.Value)
				add("cmd/%s flag -%s", bin, name)
			}
			return true
		})
	}

	sort.Strings(lines)
	got := strings.Join(lines, "\n") + "\n"
	const golden = "testdata/surface.golden"
	if *updateSurface {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	for _, d := range []struct {
		verb     string
		from, in []string
	}{{"added to", lines, wantLines}, {"removed from", wantLines, lines}} {
		in := make(map[string]bool, len(d.in))
		for _, l := range d.in {
			in[l] = true
		}
		for _, l := range d.from {
			if !in[l] {
				t.Errorf("%s the surface: %s", d.verb, l)
			}
		}
	}
	t.Errorf("the configuration surface differs from %s; if the change is deliberate (ROADMAP: a workload on which the new value wins), rerun with -update", golden)
}

// loadTree type-checks both modules of the tree — this one and bench/ —
// with their tests, once for the use tests below.
var loadTree = sync.OnceValues(func() ([]*lint.Package, error) {
	root, err := lint.LoadTests(".", "./...")
	if err != nil {
		return nil, err
	}
	bench, err := lint.LoadTests("bench", "./...")
	return append(root, bench...), err
})

func treePackages(t *testing.T) []*lint.Package {
	t.Helper()
	pkgs, err := loadTree()
	if err != nil {
		t.Fatal(err)
	}
	return pkgs
}

// isTestFile reports whether the file holding pos is a _test.go file.
func isTestFile(pkg *lint.Package, pos token.Pos) bool {
	return strings.HasSuffix(pkg.Fset.File(pos).Name(), "_test.go")
}

// visiblePackages returns pkg and every package its imports reach.
func visiblePackages(pkg *types.Package) []*types.Package {
	seen := map[*types.Package]bool{}
	var out []*types.Package
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		out = append(out, p)
		for _, im := range p.Imports() {
			walk(im)
		}
	}
	walk(pkg)
	return out
}

// interfaceMethods returns the FullName of every method declared in
// the tree whose receiver implements an interface, visible from some
// package of the tree, that has the method: code outside the tree
// (sort.Sort, fmt, net/http) or a dynamic call through the interface
// reaches it, so no use of it shows in the sources.
func interfaceMethods(pkgs []*lint.Package, inTree map[string]bool) map[string]bool {
	out := map[string]bool{}
	for _, pkg := range pkgs {
		var ifaces []*types.Interface
		var named []*types.Named
		for _, p := range visiblePackages(pkg.Pkg) {
			for _, name := range p.Scope().Names() {
				tn, ok := p.Scope().Lookup(name).(*types.TypeName)
				if !ok || tn.IsAlias() {
					continue
				}
				n, ok := tn.Type().(*types.Named)
				if !ok || n.TypeParams().Len() > 0 {
					continue
				}
				if it, ok := n.Underlying().(*types.Interface); ok {
					ifaces = append(ifaces, it)
				} else if inTree[p.Path()] {
					named = append(named, n)
				}
			}
		}
		for _, tv := range pkg.Info.Types {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok {
				ifaces = append(ifaces, it)
			}
		}
		for _, n := range named {
			for i := range n.NumMethods() {
				m := n.Method(i)
				if out[m.FullName()] {
					continue
				}
				for _, it := range ifaces {
					if obj, _, _ := types.LookupFieldOrMethod(it, false, nil, m.Name()); obj == nil {
						continue
					}
					if types.Implements(n, it) || types.Implements(types.NewPointer(n), it) {
						out[m.FullName()] = true
						break
					}
				}
			}
		}
	}
	return out
}

// TestFunctionsHaveCallers holds every function and method declared in
// a non-test file of the tree — the facade, internal/, cmd/,
// examples/ and bench/ — to a use, resolved by type (a *types.Func's
// FullName, so a method does not pass on a same-named function's
// calls): from code reachable from outside any function, or from
// another package's tests (a fixture that cannot live in a _test.go
// file). Reachability runs to a fixpoint: a use inside a function that
// nothing reaches does not count. A function only its own package's
// tests use belongs in a _test.go file; one nothing uses, nowhere.
// main, init, Error, String, Unwrap and methods that implement an
// interface with the method are used from outside the tree.
func TestFunctionsHaveCallers(t *testing.T) {
	pkgs := treePackages(t)
	type decl struct {
		pos token.Position
		dir string
	}
	decls := map[string]decl{}
	inTree := map[string]bool{}
	calls := map[string][]string{}           // FullName of a function, or "" for package scope → what it uses
	testUses := map[string]map[string]bool{} // FullName → directories whose tests use it
	for _, pkg := range pkgs {
		inTree[pkg.Pkg.Path()] = true
		for _, f := range pkg.Files {
			test := isTestFile(pkg, f.Pos())
			dir := filepath.Dir(pkg.Fset.File(f.Pos()).Name())
			for _, d := range f.Decls {
				from := ""
				if fd, ok := d.(*ast.FuncDecl); ok && !test {
					from = pkg.Info.Defs[fd.Name].(*types.Func).FullName()
					decls[from] = decl{pkg.Fset.Position(fd.Name.Pos()), dir}
				}
				ast.Inspect(d, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					fn, ok := pkg.Info.Uses[id].(*types.Func)
					if !ok {
						return true
					}
					used := fn.Origin().FullName()
					switch {
					case test:
						if testUses[used] == nil {
							testUses[used] = map[string]bool{}
						}
						testUses[used][dir] = true
					case used != from:
						calls[from] = append(calls[from], used)
					}
					return true
				})
			}
		}
	}

	live := map[string]bool{}
	var reach func(name string)
	reach = func(name string) {
		if live[name] {
			return
		}
		live[name] = true
		for _, c := range calls[name] {
			reach(c)
		}
	}
	reach("")
	exempt := interfaceMethods(pkgs, inTree)
	for name, d := range decls {
		short := name[strings.LastIndexByte(name, '.')+1:]
		method := strings.HasPrefix(name, "(")
		fixture := false
		for dir := range testUses[name] {
			fixture = fixture || dir != d.dir
		}
		if fixture || exempt[name] || (!method && (short == "main" || short == "init")) ||
			(method && (short == "Error" || short == "String" || short == "Unwrap")) {
			reach(name)
		}
	}

	var dead []string
	for name := range decls {
		if !live[name] {
			dead = append(dead, name)
		}
	}
	sort.Strings(dead)
	for _, name := range dead {
		d := decls[name]
		if testUses[name][d.dir] {
			t.Errorf("%s: %s is used only by its own package's tests; move it into a _test.go file", d.pos, name)
		} else {
			t.Errorf("%s: %s has no use; delete it", d.pos, name)
		}
	}
}

// configTypes are the settings structs whose every field must be set
// by a caller outside the declaring package: a field nobody sets has
// one value in use and belongs in a constant.
var configTypes = []struct{ path, name string }{
	{"repro", "Config"},
	{"repro/internal/serve", "Config"},
}

// TestConfigFieldsHaveCallers holds every field of fmeter.Config and
// serve.Config to a caller that sets it: some non-test file outside
// the declaring package (whose own defaulting does not count), bench/
// and examples/ included, names the field — resolved by type, to the
// struct's *types.Var — as a composite-literal key or an assignment
// target.
func TestConfigFieldsHaveCallers(t *testing.T) {
	pkgs := treePackages(t)
	set := map[string]bool{} // "<path>.<type>.<field>"
	for _, pkg := range pkgs {
		for _, p := range visiblePackages(pkg.Pkg) {
			for _, ct := range configTypes {
				if p.Path() != ct.path || pkg.Pkg.Path() == ct.path {
					continue
				}
				st := p.Scope().Lookup(ct.name).Type().Underlying().(*types.Struct)
				fields := map[types.Object]bool{}
				for i := range st.NumFields() {
					fields[st.Field(i)] = true
				}
				mark := func(e ast.Expr) {
					if sel, ok := e.(*ast.SelectorExpr); ok {
						e = sel.Sel
					}
					if id, ok := e.(*ast.Ident); ok && fields[pkg.Info.Uses[id]] {
						set[ct.path+"."+ct.name+"."+id.Name] = true
					}
				}
				for _, f := range pkg.Files {
					if isTestFile(pkg, f.Pos()) {
						continue
					}
					ast.Inspect(f, func(n ast.Node) bool {
						switch n := n.(type) {
						case *ast.KeyValueExpr:
							mark(n.Key)
						case *ast.AssignStmt:
							for _, lhs := range n.Lhs {
								if _, ok := lhs.(*ast.SelectorExpr); ok {
									mark(lhs)
								}
							}
						}
						return true
					})
				}
			}
		}
	}
	for _, pkg := range pkgs {
		for _, ct := range configTypes {
			if pkg.Pkg.Path() != ct.path {
				continue
			}
			st := pkg.Pkg.Scope().Lookup(ct.name).Type().Underlying().(*types.Struct)
			for i := range st.NumFields() {
				v := st.Field(i)
				if !set[ct.path+"."+ct.name+"."+v.Name()] {
					t.Errorf("%s: %s.%s.%s has no caller that sets it; make it a constant or delete it", pkg.Fset.Position(v.Pos()), ct.path, ct.name, v.Name())
				}
			}
		}
	}
}
