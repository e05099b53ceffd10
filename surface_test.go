package fmeter

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
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

// stdlibMethods are the method names a standard-library interface calls
// (error, fmt.Stringer, errors.Unwrap, sort.Interface, ...): a type in
// internal/ implements them for code outside the tree, so no call to
// them appears in the tree's sources.
var stdlibMethods = map[string]bool{
	"Error":  true,
	"String": true,
	"Unwrap": true,
}

// forEachSource parses every non-test .go file in the tree — bench/ and
// examples/ included, testdata/ and dot-directories skipped — and hands
// fn its slash-separated path and syntax tree.
func forEachSource(t *testing.T, fset *token.FileSet, fn func(path string, f *ast.File)) {
	t.Helper()
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		fn(filepath.ToSlash(path), f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestInternalExportsHaveCallers holds every exported function and
// method declared in a non-test internal/ file to a production caller:
// some non-test .go file in the tree, bench/ and examples/ included,
// must use its name other than in a function declaration. The check is
// by name, so a name shared with a used declaration passes; it still
// catches code that only its own tests reach, which belongs in a
// _test.go file or nowhere.
func TestInternalExportsHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	type decl struct{ name, pos string }
	var decls []decl
	used := map[string]bool{}
	forEachSource(t, fset, func(path string, f *ast.File) {
		declared := map[*ast.Ident]bool{}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declared[fd.Name] = true
			if fd.Name.IsExported() && strings.HasPrefix(path, "internal/") && !stdlibMethods[fd.Name.Name] {
				decls = append(decls, decl{fd.Name.Name, fset.Position(fd.Name.Pos()).String()})
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				used[id.Name] = true
			}
			return true
		})
	})
	for _, d := range decls {
		if !used[d.name] {
			t.Errorf("%s: %s has no caller outside _test.go files; move it into one or delete it", d.pos, d.name)
		}
	}
}

// configStructs are the settings structs whose every field must have a
// caller: the file that declares each, its package's directory, and
// the type names a caller outside that package writes.
var configStructs = []struct {
	name, file, pkg string
	spellings       []string
}{
	{"fmeter.Config", "fmeter.go", ".", []string{"fmeter.Config"}},
	{"serve.Config", "internal/serve/server.go", "internal/serve", []string{"serve.Config", "fmeter.ServeConfig"}},
}

// TestConfigFieldsHaveCallers holds every field of fmeter.Config and
// serve.Config to a caller that sets it: some non-test .go file outside
// the declaring package (whose own defaulting does not count), bench/
// and examples/ included, must name the field as a key of a composite
// literal of the type or assign it through a variable or parameter the
// file declares with the type. A field nobody sets has one value in use
// and belongs in a constant.
func TestConfigFieldsHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	typeName := func(e ast.Expr) string {
		if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
			e = u.X
		}
		if cl, ok := e.(*ast.CompositeLit); ok {
			e = cl.Type
		}
		if st, ok := e.(*ast.StarExpr); ok {
			e = st.X
		}
		if sel, ok := e.(*ast.SelectorExpr); ok {
			if x, ok := sel.X.(*ast.Ident); ok {
				return x.Name + "." + sel.Sel.Name
			}
		}
		return ""
	}
	set := map[string]bool{} // "<struct>.<field>"
	forEachSource(t, fset, func(path string, f *ast.File) {
		for _, cs := range configStructs {
			if filepath.Dir(path) == cs.pkg {
				continue
			}
			isType := func(e ast.Expr) bool { return slices.Contains(cs.spellings, typeName(e)) }
			// Names the file binds to a value of the type, met in source
			// order: a parameter, a typed var, or x := T{...} / &T{...}.
			vars := map[string]bool{}
			bind := func(ids ...*ast.Ident) {
				for _, id := range ids {
					vars[id.Name] = true
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					if isType(n.Type) {
						for _, el := range n.Elts {
							if kv, ok := el.(*ast.KeyValueExpr); ok {
								if id, ok := kv.Key.(*ast.Ident); ok {
									set[cs.name+"."+id.Name] = true
								}
							}
						}
					}
				case *ast.Field:
					if isType(n.Type) {
						bind(n.Names...)
					}
				case *ast.ValueSpec:
					if n.Type != nil && isType(n.Type) {
						bind(n.Names...)
					}
				case *ast.AssignStmt:
					for i, lhs := range n.Lhs {
						switch lhs := lhs.(type) {
						case *ast.Ident:
							if n.Tok == token.DEFINE && len(n.Rhs) == len(n.Lhs) && isType(n.Rhs[i]) {
								bind(lhs)
							}
						case *ast.SelectorExpr:
							if x, ok := lhs.X.(*ast.Ident); ok && vars[x.Name] {
								set[cs.name+"."+lhs.Sel.Name] = true
							}
						}
					}
				}
				return true
			})
		}
	})
	for _, cs := range configStructs {
		f, err := parser.ParseFile(fset, cs.file, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		name := cs.name[strings.IndexByte(cs.name, '.')+1:]
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok || ts.Name.Name != name {
				return true
			}
			for _, fl := range ts.Type.(*ast.StructType).Fields.List {
				for _, id := range fl.Names {
					if !set[cs.name+"."+id.Name] {
						t.Errorf("%s: %s.%s has no caller that sets it; make it a constant or delete it", fset.Position(id.Pos()), cs.name, id.Name)
					}
				}
			}
			return false
		})
	}
}
