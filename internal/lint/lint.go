// Package lint is fmeter's repo-specific static-analysis suite: three
// analyzers that machine-check the contracts DESIGN-PERF.md states and
// the property tests only sample — determinism (no wall-clock or
// unseeded randomness in result paths, no map-iteration order leaking
// into results), typed errors (snapshot/config failures surface as
// *SnapshotError/*ConfigError), and no-alloc zones (the batched query
// paths stay allocation-free).
//
// The framework deliberately mirrors the golang.org/x/tools/go/analysis
// API shape (Analyzer, Pass, Diagnostic) but is built on the standard
// library alone: packages are enumerated and compiled with
// `go list -export`, type-checked with go/types against the compiler's
// export data, and diagnostics carry the violated contract's name so
// `make lint` failures read as contract violations, not style nits.
// If x/tools ever lands in the module, the analyzers port over by
// changing only this file and load.go.
//
// # Annotation grammar
//
// Analyzers are scoped and suppressed with `//fmeter:` directives.
// Every suppression requires a reason — the allowlist doubles as
// documentation. A directive's scope depends on where it appears:
//
//   - inside a function body: it covers the statement it trails or the
//     statement immediately below it (line scope);
//   - in a function's doc comment: it covers the whole function;
//   - anywhere else in a file (including above `package`): it covers
//     the whole file.
//
// Directives:
//
//	//fmeter:nondeterministic-ok <reason>   allow time.Now / global math/rand here
//	//fmeter:map-order-ok <reason>          allow an order-sensitive write under a map range
//	//fmeter:deterministic                  opt a file into the map-range check
//	//fmeter:errdomain snapshot|config      function/file must return typed errors
//	//fmeter:errdomain none                 leaf helper opt-out inside an errdomain file
//	//fmeter:untyped-ok <reason>            allow one untyped error site in an errdomain
//	//fmeter:noalloc                        function must not allocate
//	//fmeter:alloc-ok <reason>              allow one allocation site in a noalloc zone
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one contract checker.
type Analyzer struct {
	// Name is the analyzer's short name (`fmeter-vet -run` matches it).
	Name string
	// Contract names the repo contract a diagnostic violates; it is
	// printed with every finding.
	Contract string
	// Doc is a one-paragraph description.
	Doc string
	// Run reports diagnostics for one package.
	Run func(*Pass)
}

// A Pass is one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// PkgPath is the import path (testdata packages use their directory
	// name).
	PkgPath string
	// Dirs indexes the package's //fmeter: directives.
	Dirs *Directives

	diags *[]Diagnostic
}

// A Diagnostic is one contract violation.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Contract string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s (fmeter-vet/%s)",
		d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Contract, d.Message, d.Analyzer)
}

// Reportf records a violation at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Contract: p.Analyzer.Contract,
		Message:  fmt.Sprintf(format, args...),
	})
}

// DirectivePrefix is the comment prefix all lint annotations share.
const DirectivePrefix = "//fmeter:"

// Scope classifies where a directive applies.
type Scope int

const (
	// LineScope covers the statement the directive trails or precedes.
	LineScope Scope = iota
	// FuncScope covers the function whose doc comment holds the directive.
	FuncScope
	// FileScope covers the whole file.
	FileScope
)

// A Directive is one parsed //fmeter: annotation.
type Directive struct {
	Name  string // e.g. "nondeterministic-ok"
	Args  string // remainder of the line, TrimSpace'd
	Scope Scope
	Pos   token.Pos
	// start/end delimit the source range the directive covers.
	start, end token.Pos
}

// Directives indexes a package's annotations for coverage queries.
type Directives struct {
	fset *token.FileSet
	all  []*Directive
}

// parseDirectives extracts every //fmeter: comment from the files and
// resolves its scope.
func parseDirectives(fset *token.FileSet, files []*ast.File) *Directives {
	d := &Directives{fset: fset}
	for _, f := range files {
		// Collect the function declarations once per file so line-scope
		// attachment and doc-comment scoping can be resolved by position.
		var funcs []*ast.FuncDecl
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok {
				funcs = append(funcs, fd)
			}
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, DirectivePrefix) {
					continue
				}
				body := strings.TrimPrefix(c.Text, DirectivePrefix)
				name, args, _ := strings.Cut(body, " ")
				dir := &Directive{Name: name, Args: strings.TrimSpace(args), Pos: c.Pos()}
				d.resolveScope(dir, c, f, funcs)
				d.all = append(d.all, dir)
			}
		}
	}
	sort.Slice(d.all, func(i, j int) bool { return d.all[i].Pos < d.all[j].Pos })
	return d
}

// resolveScope decides what source range dir covers.
func (d *Directives) resolveScope(dir *Directive, c *ast.Comment, f *ast.File, funcs []*ast.FuncDecl) {
	for _, fd := range funcs {
		// Doc comment → function scope.
		if fd.Doc != nil && c.Pos() >= fd.Doc.Pos() && c.End() <= fd.Doc.End() {
			dir.Scope = FuncScope
			dir.start, dir.end = fd.Pos(), fd.End()
			return
		}
		// Inside a body → line scope: the directive covers the statement
		// it shares a line with, or the next statement below it.
		if fd.Body != nil && c.Pos() > fd.Body.Lbrace && c.End() < fd.Body.Rbrace {
			dir.Scope = LineScope
			dir.start, dir.end = c.Pos(), c.End()
			dline := d.fset.Position(c.Pos()).Line
			var attach ast.Stmt
			// A directive written inside an expression (a multi-line
			// composite literal or argument list) covers the whole
			// enclosing statement.
			inExpr := false
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if e, ok := n.(ast.Expr); ok && e.Pos() <= c.Pos() && c.End() <= e.End() {
					inExpr = true
				}
				return true
			})
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				st, ok := n.(ast.Stmt)
				if !ok {
					return true
				}
				if _, isBlock := st.(*ast.BlockStmt); isBlock {
					return true
				}
				sl := d.fset.Position(st.Pos()).Line
				el := d.fset.Position(st.End()).Line
				if inExpr && st.Pos() <= c.Pos() && c.End() <= st.End() {
					// Innermost non-block statement containing the
					// directive (Inspect visits outer before inner).
					attach = st
				}
				if sl <= dline && dline <= el && st.End() <= c.Pos() {
					// Trailing comment on the statement's line(s).
					attach = st
				}
				if (sl == dline+1) && st.Pos() > c.End() && attach == nil {
					attach = st
				}
				return true
			})
			if attach != nil {
				if attach.Pos() < dir.start {
					dir.start = attach.Pos()
				}
				if attach.End() > dir.end {
					dir.end = attach.End()
				}
			}
			return
		}
	}
	// Anywhere else (package doc, between declarations, above a type or
	// var) → file scope.
	dir.Scope = FileScope
	dir.start, dir.end = f.Pos(), f.End()
	// A file-scope directive may sit above `package` and therefore
	// before f.Pos(); widen so it covers itself too.
	if c.Pos() < dir.start {
		dir.start = c.Pos()
	}
}

// At returns the innermost directive named name covering pos, or nil.
func (ds *Directives) At(name string, pos token.Pos) *Directive {
	var best *Directive
	for _, dir := range ds.all {
		if dir.Name != name || pos < dir.start || pos >= dir.end {
			continue
		}
		if best == nil || (dir.end-dir.start) < (best.end-best.start) {
			best = dir
		}
	}
	return best
}

// InFile reports whether a file-scope directive named name exists in
// the file containing pos.
func (ds *Directives) InFile(name string, pos token.Pos) *Directive {
	file := ds.fset.File(pos)
	if file == nil {
		return nil
	}
	for _, dir := range ds.all {
		if dir.Name == name && dir.Scope == FileScope && ds.fset.File(dir.Pos) == file {
			return dir
		}
	}
	return nil
}

// Suppressed reports whether a suppression directive covers pos; if the
// directive is present but has no reason, it reports a finding of its
// own so allowlists stay documented.
func (p *Pass) Suppressed(name string, pos token.Pos) bool {
	dir := p.Dirs.At(name, pos)
	if dir == nil {
		return false
	}
	if dir.Args == "" {
		p.Reportf(dir.Pos, "%s%s needs a reason: the allowlist is documentation", DirectivePrefix, name)
	}
	return true
}

// enclosingFunc returns the innermost function declaration containing
// pos, or nil.
func enclosingFunc(files []*ast.File, pos token.Pos) *ast.FuncDecl {
	for _, f := range files {
		if pos < f.Pos() || pos >= f.End() {
			continue
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && pos >= fd.Pos() && pos < fd.End() {
				return fd
			}
		}
	}
	return nil
}
