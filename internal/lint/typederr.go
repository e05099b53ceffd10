package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// TypedErr enforces the typed-error contract on snapshot/config I/O
// paths: a function annotated //fmeter:errdomain snapshot (or config)
// promises every error it returns is a *SnapshotError (*ConfigError)
// or wraps one with %w, so callers can always errors.As from the
// facade. The analyzer proves it per return: typed constructions and
// calls into other errdomain functions are trusted; bare errors.New,
// fmt.Errorf without a typed/propagated %w cause, and raw propagation
// of an unannotated callee's error are findings.
var TypedErr = &Analyzer{
	Name:     "typederr",
	Contract: "typed-error",
	Doc: `in //fmeter:errdomain snapshot|config functions (or whole files), every
returned error must construct or %w-wrap *SnapshotError/*ConfigError;
leaf helpers whose callers wrap are opted out with errdomain none`,
	Run: runTypedErr,
}

// typedErrNames are the typed error structs the contract is stated in
// terms of. Matched by type name so the golden suites can declare their
// own copies.
var typedErrNames = map[string]bool{
	"SnapshotError": true,
	"ConfigError":   true,
}

func runTypedErr(pass *Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			domain := errDomainOf(pass, f, fd)
			if domain == "" || domain == "none" {
				continue
			}
			checkErrDomainFunc(pass, fd)
		}
	}
}

// errDomainOf resolves the errdomain annotation for fd: a function-doc
// directive wins over a file-scope one; "none" opts a leaf helper out.
func errDomainOf(pass *Pass, f *ast.File, fd *ast.FuncDecl) string {
	if dir := pass.Dirs.At("errdomain", fd.Pos()); dir != nil && dir.Scope == FuncScope {
		return dir.Args
	}
	if dir := pass.Dirs.InFile("errdomain", f.Pos()); dir != nil {
		return dir.Args
	}
	return ""
}

// checkErrDomainFunc verifies every error-typed return operand in fd.
func checkErrDomainFunc(pass *Pass, fd *ast.FuncDecl) {
	// Named results let `return` be bare; map result names to their
	// fields so bare returns check the named error variable. The
	// flattened declared result types also classify return operands —
	// a concrete error struct returned AS error has a non-interface
	// static type, and only the declaration reveals the error position.
	var namedErrs []*ast.Ident
	var errResult []bool
	if fd.Type.Results != nil {
		for _, field := range fd.Type.Results.List {
			isErr := false
			if t := pass.Info.TypeOf(field.Type); t != nil && isErrorType(t) {
				isErr = true
			}
			n := len(field.Names)
			if n == 0 {
				n = 1 // anonymous result
			}
			for i := 0; i < n; i++ {
				errResult = append(errResult, isErr)
			}
			for _, name := range field.Names {
				if isErr {
					namedErrs = append(namedErrs, name)
				}
			}
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // closures have their own (unannotated) contract
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		if len(ret.Results) == 0 {
			for _, ne := range namedErrs {
				checkErrValue(pass, fd, ne, ret.Pos(), 0)
			}
			return true
		}
		for i, res := range ret.Results {
			declaredErr := len(ret.Results) == len(errResult) && errResult[i]
			if !declaredErr {
				if t := pass.Info.TypeOf(res); t == nil || !isErrorType(t) {
					continue
				}
			}
			checkErrValue(pass, fd, res, ret.Pos(), 0)
		}
		return true
	})
}

// isErrorType reports whether t is the error interface or a pointer to
// one of the typed error structs.
func isErrorType(t types.Type) bool {
	if named, ok := t.(*types.Named); ok && named.Obj().Name() == "error" && named.Obj().Pkg() == nil {
		return true
	}
	if iface, ok := t.Underlying().(*types.Interface); ok {
		// Only the error interface itself, not arbitrary interfaces.
		return iface.NumMethods() == 1 && iface.Method(0).Name() == "Error"
	}
	return isTypedErrPtr(t)
}

// deref strips one level of pointer from t.
func deref(t types.Type) types.Type {
	if t == nil {
		return nil
	}
	if ptr, ok := t.(*types.Pointer); ok {
		return ptr.Elem()
	}
	return t
}

// isTypedErrPtr reports whether t is *SnapshotError / *ConfigError.
func isTypedErrPtr(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	return ok && typedErrNames[named.Obj().Name()]
}

const maxErrDepth = 8

// checkErrValue proves one error expression is typed (or wraps typed /
// propagates a trusted callee) and reports the offending site if not.
func checkErrValue(pass *Pass, fd *ast.FuncDecl, e ast.Expr, retPos token.Pos, depth int) {
	if depth > maxErrDepth {
		return
	}
	e = ast.Unparen(e)
	if t := pass.Info.TypeOf(e); t != nil && isTypedErrPtr(t) {
		return // a typed construction or a helper that returns the typed pointer
	}
	switch e := e.(type) {
	case *ast.Ident:
		if e.Name == "nil" {
			return
		}
		obj := pass.Info.Uses[e]
		if obj == nil {
			// Named results checked at a bare return reach here as their
			// declaration idents, which live in Defs.
			obj = pass.Info.Defs[e]
		}
		if obj == nil {
			return
		}
		if _, isVar := obj.(*types.Var); !isVar {
			return
		}
		if fld, ok := obj.(*types.Var); ok && fld.IsField() {
			return
		}
		// Parameters are the caller's responsibility.
		if isParamOf(fd, pass, obj) {
			return
		}
		// Flow-insensitive reaching definitions, refined: the idiomatic
		// `x, err := f(); if err != nil { return err }` re-uses one err
		// object across a function, so when definitions precede the
		// return, only the nearest one can be the value returned here.
		defs := errDefs(pass, fd, obj)
		var nearest ast.Expr
		for _, def := range defs {
			if def.Pos() < retPos && (nearest == nil || def.Pos() > nearest.Pos()) {
				nearest = def
			}
		}
		if nearest != nil {
			checkErrValue(pass, fd, nearest, retPos, depth+1)
			return
		}
		for _, def := range defs {
			checkErrValue(pass, fd, def, retPos, depth+1)
		}
	case *ast.CallExpr:
		checkErrCall(pass, fd, e, retPos, depth)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			checkErrValue(pass, fd, e.X, retPos, depth+1)
		}
	case *ast.CompositeLit:
		if named, ok := deref(pass.Info.TypeOf(e)).(*types.Named); ok && typedErrNames[named.Obj().Name()] {
			return
		}
		report(pass, e.Pos(), "untyped error composite escapes an errdomain function")
	case *ast.SelectorExpr:
		// Struct fields holding errors (s.err): assume stores
		// upheld the contract where they were assigned.
		return
	case *ast.IndexExpr, *ast.TypeAssertExpr:
		return
	}
}

// checkErrCall classifies a call expression used as an error value.
func checkErrCall(pass *Pass, fd *ast.FuncDecl, call *ast.CallExpr, retPos token.Pos, depth int) {
	callee := calleeObj(pass, call)
	if callee == nil {
		// Local error-wrapping closures (the fail := func(err error)
		// pattern) are resolved to their FuncLit and checked like inline
		// errdomain functions; other indirect calls are trusted.
		if lit := closureLit(pass, fd, call); lit != nil {
			checkClosureCall(pass, fd, call, lit, retPos, depth)
		}
		return
	}
	pkgPath := ""
	if callee.Pkg() != nil {
		pkgPath = callee.Pkg().Path()
	}
	switch {
	case pkgPath == "errors" && callee.Name() == "New":
		report(pass, call.Pos(), "bare errors.New on a snapshot/config path: construct *SnapshotError/*ConfigError (or %%w-wrap one) so errors.As works from the facade")
	case pkgPath == "fmt" && callee.Name() == "Errorf":
		checkErrorf(pass, fd, call, retPos, depth)
	case pkgPath == "errors" && (callee.Name() == "Join"):
		for _, arg := range call.Args {
			checkErrValue(pass, fd, arg, retPos, depth+1)
		}
	default:
		// A call into another errdomain-annotated function in this
		// package is trusted: its own returns are checked. Everything
		// else produces an untyped error that must be wrapped here.
		if samePkgErrDomain(pass, callee) {
			return
		}
		if ret := pass.Info.TypeOf(call); ret != nil && isTypedErrPtr(ret) {
			return
		}
		report(pass, call.Pos(), "error from %s escapes an errdomain function untyped: wrap it in *SnapshotError/*ConfigError", callee.Name())
	}
}

// closureLit resolves a call through a local variable to the FuncLit
// assigned to it inside fd, or nil.
func closureLit(pass *Pass, fd *ast.FuncDecl, call *ast.CallExpr) *ast.FuncLit {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return nil
	}
	obj := pass.Info.Uses[id]
	if obj == nil {
		return nil
	}
	if _, isVar := obj.(*types.Var); !isVar {
		return nil
	}
	var lit *ast.FuncLit
	for _, def := range errDefs(pass, fd, obj) {
		if fl, ok := def.(*ast.FuncLit); ok {
			lit = fl
		}
	}
	return lit
}

// checkClosureCall checks the error results a closure returns. A typed
// construction inside the closure covers every call; a pass-through of
// one of the closure's own parameters shifts the proof obligation to the
// corresponding argument at this call site.
func checkClosureCall(pass *Pass, fd *ast.FuncDecl, call *ast.CallExpr, lit *ast.FuncLit, retPos token.Pos, depth int) {
	if depth > maxErrDepth {
		return
	}
	// Closure parameters, in declaration order, for arg mapping.
	var params []types.Object
	if lit.Type.Params != nil {
		for _, f := range lit.Type.Params.List {
			for _, name := range f.Names {
				params = append(params, pass.Info.Defs[name])
			}
		}
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if inner, ok := n.(*ast.FuncLit); ok && inner != lit {
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, res := range ret.Results {
			t := pass.Info.TypeOf(res)
			if t == nil || !isErrorType(t) {
				continue
			}
			res = ast.Unparen(res)
			if id, ok := res.(*ast.Ident); ok {
				if obj := pass.Info.Uses[id]; obj != nil {
					for pi, p := range params {
						if p == obj && pi < len(call.Args) {
							checkErrValue(pass, fd, call.Args[pi], retPos, depth+1)
							obj = nil
							break
						}
					}
					if obj == nil {
						continue
					}
				}
			}
			checkErrValue(pass, fd, res, retPos, depth+1)
		}
		return true
	})
}

// checkErrorf verifies fmt.Errorf has a %w verb whose argument is
// itself typed/trusted; %w-less Errorf severs the errors.As chain.
func checkErrorf(pass *Pass, fd *ast.FuncDecl, call *ast.CallExpr, retPos token.Pos, depth int) {
	if len(call.Args) == 0 {
		return
	}
	format, ok := stringConst(pass, call.Args[0])
	if !ok {
		report(pass, call.Pos(), "fmt.Errorf with a non-constant format on a snapshot/config path: the checker cannot prove a %%w wrap")
		return
	}
	wraps := wrapArgIndexes(format)
	if len(wraps) == 0 {
		report(pass, call.Pos(), "fmt.Errorf without %%w on a snapshot/config path: the error cannot carry *SnapshotError/*ConfigError for errors.As")
		return
	}
	for _, idx := range wraps {
		ai := 1 + idx
		if ai < len(call.Args) {
			checkErrValue(pass, fd, call.Args[ai], retPos, depth+1)
		}
	}
}

// wrapArgIndexes returns the 0-based operand indexes consumed by %w
// verbs in format (no explicit-index support; the codebase doesn't use
// %[n]w).
func wrapArgIndexes(format string) []int {
	var out []int
	arg := 0
	for i := 0; i < len(format); i++ {
		if format[i] != '%' {
			continue
		}
		i++
		if i >= len(format) {
			break
		}
		if format[i] == '%' {
			continue
		}
		// Skip flags/width/precision.
		for i < len(format) && strings.ContainsRune("+-# 0123456789.*", rune(format[i])) {
			i++
		}
		if i >= len(format) {
			break
		}
		if format[i] == 'w' {
			out = append(out, arg)
		}
		arg++
	}
	return out
}

// stringConst evaluates e as a constant string.
func stringConst(pass *Pass, e ast.Expr) (string, bool) {
	tv, ok := pass.Info.Types[e]
	if !ok || tv.Value == nil {
		return "", false
	}
	s := tv.Value.ExactString()
	unq, err := strconv.Unquote(s)
	if err != nil {
		return "", false
	}
	return unq, true
}

// errDefs collects the RHS expressions assigned to obj anywhere in fd
// (flow-insensitive reaching definitions).
func errDefs(pass *Pass, fd *ast.FuncDecl, obj types.Object) []ast.Expr {
	var defs []ast.Expr
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, lhs := range assign.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			lobj := pass.Info.Defs[id]
			if lobj == nil {
				lobj = pass.Info.Uses[id]
			}
			if lobj != obj {
				continue
			}
			if len(assign.Rhs) == len(assign.Lhs) {
				defs = append(defs, assign.Rhs[i])
			} else if len(assign.Rhs) == 1 {
				// x, err := f(): the error position shares the call.
				defs = append(defs, assign.Rhs[0])
			}
		}
		return true
	})
	return defs
}

// isParamOf reports whether obj is one of fd's parameters or receiver.
func isParamOf(fd *ast.FuncDecl, pass *Pass, obj types.Object) bool {
	check := func(fl *ast.FieldList) bool {
		if fl == nil {
			return false
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				if pass.Info.Defs[name] == obj {
					return true
				}
			}
		}
		return false
	}
	return check(fd.Recv) || check(fd.Type.Params)
}

// calleeObj resolves a call's static callee, or nil for indirect calls
// and builtins.
func calleeObj(pass *Pass, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if obj := pass.Info.Uses[fun]; obj != nil {
			if _, ok := obj.(*types.Func); ok {
				return obj
			}
		}
	case *ast.SelectorExpr:
		if obj := pass.Info.Uses[fun.Sel]; obj != nil {
			if _, ok := obj.(*types.Func); ok {
				return obj
			}
		}
	}
	return nil
}

// samePkgErrDomain reports whether callee is a function in the package
// under analysis that carries its own errdomain annotation (and so
// checks its own returns).
func samePkgErrDomain(pass *Pass, callee types.Object) bool {
	if callee.Pkg() == nil || callee.Pkg() != pass.Pkg {
		return false
	}
	fd := enclosingFunc(pass.Files, callee.Pos())
	if fd == nil {
		return false
	}
	for _, f := range pass.Files {
		if callee.Pos() >= f.Pos() && callee.Pos() < f.End() {
			d := errDomainOf(pass, f, fd)
			return d != "" && d != "none"
		}
	}
	return false
}

// report emits unless the site carries //fmeter:untyped-ok <reason>.
func report(pass *Pass, pos token.Pos, format string, args ...any) {
	if pass.Suppressed("untyped-ok", pos) {
		return
	}
	pass.Reportf(pos, format, args...)
}
