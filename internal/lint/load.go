package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// A Package is one parsed, type-checked unit ready for analysis.
type Package struct {
	Fset    *token.FileSet
	Files   []*ast.File
	Pkg     *types.Package
	Info    *types.Info
	PkgPath string
	Dirs    *Directives
}

// Run applies each analyzer to each package and returns the combined
// diagnostics in file/line order.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Pkg,
				Info:     pkg.Info,
				PkgPath:  pkg.PkgPath,
				Dirs:     pkg.Dirs,
				diags:    &diags,
			}
			a.Run(pass)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return diags
}

// listPkg is the subset of `go list -json` output the loader needs.
type listPkg struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	ForTest    string
	ImportMap  map[string]string
	Standard   bool
	DepOnly    bool
	Error      *struct{ Err string }
}

// goList runs `go list -deps -export -json` in dir over patterns and
// decodes the package stream; tests adds -test, which lists each
// package's test variants too. -export makes the toolchain compile each
// package (build-cached) and report its export-data file, which is what
// lets go/types resolve imports without golang.org/x/tools.
func goList(dir string, tests bool, patterns []string) ([]listPkg, error) {
	args := []string{"list", "-deps", "-export",
		"-json=ImportPath,Dir,Export,GoFiles,ForTest,ImportMap,Standard,DepOnly,Error"}
	if tests {
		args = append(args, "-test")
	}
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	var pkgs []listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %w", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// exportImporter satisfies go/types import resolution from the export
// files `go list -export` reported, keyed by import path; importMap
// redirects an import to the test variant a test build compiles
// instead.
func exportImporter(fset *token.FileSet, exports, importMap map[string]string) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if v, ok := importMap[path]; ok {
			path = v
		}
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
}

// check parses the named files and type-checks them as one package.
func check(fset *token.FileSet, pkgPath string, filenames []string, imp types.Importer) (*Package, error) {
	var files []*ast.File
	for _, fn := range filenames {
		f, err := parser.ParseFile(fset, fn, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := newInfo()
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(pkgPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", pkgPath, err)
	}
	return &Package{
		Fset:    fset,
		Files:   files,
		Pkg:     pkg,
		Info:    info,
		PkgPath: pkgPath,
		Dirs:    parseDirectives(fset, files),
	}, nil
}

// LoadPatterns loads the non-test compilation of every package the
// patterns name (relative to dir), type-checked against export data.
// Dependencies are resolved but only the named packages are returned
// for analysis.
func LoadPatterns(dir string, patterns ...string) ([]*Package, error) {
	return load(dir, false, patterns)
}

// LoadTests is LoadPatterns with each named package's _test.go files:
// a package that has tests is returned as its test build (its own
// files and its in-package tests, type-checked as one package) and,
// if it has one, its external _test package. A file's name tells a
// test file from the package's own.
func LoadTests(dir string, patterns ...string) ([]*Package, error) {
	return load(dir, true, patterns)
}

func load(dir string, tests bool, patterns []string) ([]*Package, error) {
	listed, err := goList(dir, tests, patterns)
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string, len(listed))
	hasTests := map[string]bool{}
	for _, p := range listed {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if p.ForTest != "" {
			hasTests[p.ForTest] = true
		}
	}
	fset := token.NewFileSet()
	shared := exportImporter(fset, exports, nil)
	var pkgs []*Package
	for _, p := range listed {
		// A test build lists each package with tests twice, as itself
		// and as "path [path.test]", plus the generated "path.test"
		// main; the variant holds every file of the first.
		if p.DepOnly || p.Standard || len(p.GoFiles) == 0 ||
			hasTests[p.ImportPath] || strings.HasSuffix(p.ImportPath, ".test") {
			continue
		}
		filenames := make([]string, len(p.GoFiles))
		for i, gf := range p.GoFiles {
			filenames[i] = filepath.Join(p.Dir, gf)
		}
		// A package whose imports a test build redirects gets its own
		// importer: the shared one caches each path's plain package.
		imp := shared
		if len(p.ImportMap) > 0 {
			imp = exportImporter(fset, exports, p.ImportMap)
		}
		path, _, _ := strings.Cut(p.ImportPath, " ")
		pkg, err := check(fset, path, filenames, imp)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}
