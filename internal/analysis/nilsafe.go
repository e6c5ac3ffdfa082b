package analysis

import (
	"go/ast"
	"go/types"
)

// DefaultNilsafeTypes are the hook types whose exported methods must be
// callable on a nil receiver (the DESIGN.md §4b zero-perturbation
// contract): the simulator threads plain pointers to these types through
// the hot path and relies on `if r == nil { return }` guards instead of
// interface indirection.
var DefaultNilsafeTypes = []string{
	"latsim/internal/obs.Recorder",
	"latsim/internal/obs/span.Tracer",
	"latsim/internal/obs/span.Span",
	"latsim/internal/check.Checker",
	"latsim/internal/runner.Hooks",
	"latsim/internal/obs/diff.Diff",
}

// NewNilsafe returns the nilsafe analyzer for the given fully qualified
// type names ("pkgpath.TypeName"). Every exported pointer-receiver
// method on a listed type must begin with a receiver nil check before it
// reads or writes any receiver field — or calls another method that
// itself dereferences the receiver unguarded, which callers in other
// packages learn from the summaries its package publishes rather than
// the body; methods that never touch the receiver's fields need no
// guard.
func NewNilsafe(typeNames ...string) *Analyzer {
	if len(typeNames) == 0 {
		typeNames = DefaultNilsafeTypes
	}
	guarded := map[string]bool{}
	for _, t := range typeNames {
		guarded[t] = true
	}
	a := &Analyzer{
		Name: "nilsafe",
		Doc:  "check that exported methods on nil-guarded hook types test the receiver before any field access",
	}
	a.Run = func(pass *Pass) error {
		// First pass: every method (exported or not) on a guarded type
		// that dereferences its receiver without a guard; the package
		// publishes these so callers anywhere treat the call like a
		// field access.
		forEachGuardedMethod(pass, guarded, func(fn *ast.FuncDecl, recvObj types.Object, typeName string) {
			for _, stmt := range fn.Body.List {
				if isNilGuard(pass, stmt, recvObj) {
					return
				}
				if findFieldAccess(pass, stmt, recvObj) != nil {
					pass.unguarded[pass.Info.Defs[fn.Name]] = true
					return
				}
			}
		})
		// Second pass: exported methods must guard before any unsafe use.
		forEachGuardedMethod(pass, guarded, func(fn *ast.FuncDecl, recvObj types.Object, typeName string) {
			if fn.Name.IsExported() {
				checkNilGuard(pass, fn, recvObj, typeName)
			}
		})
		return nil
	}
	return a
}

// forEachGuardedMethod applies f to every method with a body whose
// pointer receiver names a guarded type.
func forEachGuardedMethod(pass *Pass, guarded map[string]bool, f func(*ast.FuncDecl, types.Object, string)) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || fn.Body == nil {
				continue
			}
			recvObj, typeName := receiverInfo(pass, fn)
			if recvObj == nil || !guarded[typeName] {
				continue
			}
			f(fn, recvObj, typeName)
		}
	}
}

// receiverInfo resolves a method's receiver object and the fully
// qualified name of its (pointer-element) type.
func receiverInfo(pass *Pass, fn *ast.FuncDecl) (types.Object, string) {
	if len(fn.Recv.List) != 1 || len(fn.Recv.List[0].Names) != 1 {
		return nil, "" // unnamed receiver cannot be dereferenced anyway
	}
	name := fn.Recv.List[0].Names[0]
	obj := pass.Info.Defs[name]
	if obj == nil {
		return nil, ""
	}
	ptr, ok := obj.Type().(*types.Pointer)
	if !ok {
		return nil, "" // value receivers copy; nil is not a concern
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return nil, ""
	}
	return obj, basePkgPath(named.Obj().Pkg().Path()) + "." + named.Obj().Name()
}

// checkNilGuard walks the method body statement by statement: a field
// access (or dereference) of the receiver — or a call to a method known
// to dereference it unguarded — before a top-level
// `if recv == nil { return ... }` guard is a violation.
func checkNilGuard(pass *Pass, fn *ast.FuncDecl, recv types.Object, typeName string) {
	for _, stmt := range fn.Body.List {
		if isNilGuard(pass, stmt, recv) {
			return // everything below is protected
		}
		if bad := findFieldAccess(pass, stmt, recv); bad != nil {
			pass.Reportf(bad.Pos(),
				"%s.%s accesses receiver %s before nil guard; hook methods must begin with `if %s == nil { return }` (zero-perturbation contract)",
				typeName, fn.Name.Name, recv.Name(), recv.Name())
			return // one report per method
		}
		if bad, callee := findUnguardedCall(pass, stmt, recv); bad != nil {
			pass.Reportf(bad.Pos(),
				"%s.%s calls %s, which dereferences the receiver without its own nil guard, before the nil guard; guard %s first (zero-perturbation contract)",
				typeName, fn.Name.Name, callee, recv.Name())
			return
		}
	}
}

// findUnguardedCall returns the first call `recv.m(...)` in stmt whose
// target method dereferences the receiver without a guard — known from
// this package's first pass or, cross-package, from the summary its
// package published.
func findUnguardedCall(pass *Pass, stmt ast.Stmt, recv types.Object) (ast.Node, string) {
	var bad ast.Node
	var name string
	ast.Inspect(stmt, func(n ast.Node) bool {
		if bad != nil {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok || pass.ObjectOf(id) != recv {
			return true
		}
		callee, ok := pass.Info.Uses[sel.Sel].(*types.Func)
		if !ok {
			return true
		}
		if s := pass.imported(callee); pass.unguarded[callee.Origin()] || s != nil && s.unguarded {
			bad = call
			name = callee.Name()
		}
		return true
	})
	return bad, name
}

// isNilGuard matches `if recv == nil { ...; return }` (the guarded body
// must leave the function).
func isNilGuard(pass *Pass, stmt ast.Stmt, recv types.Object) bool {
	ifs, ok := stmt.(*ast.IfStmt)
	if !ok || ifs.Init != nil {
		return false
	}
	bin, ok := ifs.Cond.(*ast.BinaryExpr)
	if !ok || bin.Op.String() != "==" {
		return false
	}
	isRecv := func(e ast.Expr) bool {
		id, ok := e.(*ast.Ident)
		return ok && pass.ObjectOf(id) == recv
	}
	isNil := func(e ast.Expr) bool {
		id, ok := e.(*ast.Ident)
		return ok && id.Name == "nil"
	}
	if !(isRecv(bin.X) && isNil(bin.Y)) && !(isNil(bin.X) && isRecv(bin.Y)) {
		return false
	}
	if n := len(ifs.Body.List); n > 0 {
		_, ret := ifs.Body.List[n-1].(*ast.ReturnStmt)
		return ret
	}
	return false
}

// findFieldAccess returns the first expression in stmt that reads a
// field of recv or dereferences it. Method calls on recv are allowed:
// the callee is responsible for its own guard.
func findFieldAccess(pass *Pass, stmt ast.Stmt, recv types.Object) ast.Node {
	var bad ast.Node
	ast.Inspect(stmt, func(n ast.Node) bool {
		if bad != nil {
			return false
		}
		switch e := n.(type) {
		case *ast.SelectorExpr:
			id, ok := e.X.(*ast.Ident)
			if !ok || pass.ObjectOf(id) != recv {
				return true
			}
			if sel, ok := pass.Info.Selections[e]; ok && sel.Kind() == types.FieldVal {
				bad = e
				return false
			}
		case *ast.StarExpr:
			if id, ok := e.X.(*ast.Ident); ok && pass.ObjectOf(id) == recv {
				bad = e
				return false
			}
		}
		return true
	})
	return bad
}
