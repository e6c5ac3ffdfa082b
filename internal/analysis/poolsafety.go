package analysis

import (
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// poolPkgPath is the package providing the free-list Pool the analyzer
// tracks.
const poolPkgPath = "latsim/internal/sim"

// NewPoolsafety returns the poolsafety analyzer: misuse of sim.Pool[T]
// objects. The pool contract (see sim.Pool) is LIFO recycling with no
// poisoning, so every violation silently aliases live state:
//
//   - use after Put: the object may already have been handed out again;
//   - double Put: two future Gets return the same pointer;
//   - Put while the pointer is still stored in a longer-lived field or
//     map (within one function): the stale reference outlives the event.
//
// The analysis is flow-aware within a function body (branches merge
// conservatively; a Put inside one arm poisons the join) but does not
// track aliases or cross-function flows.
//
// Test files are exempt: regression tests (sim's pool_test.go) commit
// the violations on purpose to pin down what misuse does.
func NewPoolsafety() *Analyzer {
	a := &Analyzer{
		Name: "poolsafety",
		Doc:  "check sim.Pool objects for use-after-Put, double-Put and stores that outlive Put",
	}
	a.Run = func(pass *Pass) error {
		for _, file := range pass.Files {
			if strings.HasSuffix(pass.Fset.Position(file.Pos()).Filename, "_test.go") {
				continue
			}
			ast.Inspect(file, func(n ast.Node) bool {
				switch fn := n.(type) {
				case *ast.FuncDecl:
					if fn.Body != nil {
						ps := &poolState{pass: pass}
						ps.block(fn.Body.List, newPoolFlow())
					}
					return false // nested FuncLits are walked inside block
				}
				return true
			})
		}
		return nil
	}
	return a
}

// isPoolType reports whether t is sim.Pool[T] or *sim.Pool[T].
func isPoolType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Origin().Obj()
	return obj != nil && obj.Name() == "Pool" && obj.Pkg() != nil && obj.Pkg().Path() == poolPkgPath
}

// poolFlow is the per-path analysis state.
type poolFlow struct {
	// dead maps a pooled object to the position of the Put that freed it.
	dead map[types.Object]token.Pos
	// stores maps a pooled object to the longer-lived locations (printed
	// form of the destination) it is currently stored in.
	stores map[types.Object]map[string]token.Pos
	// terminated is set when the path ends in return/panic/branch.
	terminated bool
}

func newPoolFlow() *poolFlow {
	return &poolFlow{
		dead:   map[types.Object]token.Pos{},
		stores: map[types.Object]map[string]token.Pos{},
	}
}

func (f *poolFlow) clone() *poolFlow {
	g := newPoolFlow()
	for k, v := range f.dead {
		g.dead[k] = v
	}
	for k, m := range f.stores {
		c := map[string]token.Pos{}
		for s, p := range m {
			c[s] = p
		}
		g.stores[k] = c
	}
	return g
}

// merge unions another path's facts into f (conservative join).
func (f *poolFlow) merge(g *poolFlow) {
	if g == nil || g.terminated {
		return
	}
	for k, v := range g.dead {
		if _, ok := f.dead[k]; !ok {
			f.dead[k] = v
		}
	}
	for k, m := range g.stores {
		d := f.stores[k]
		if d == nil {
			d = map[string]token.Pos{}
			f.stores[k] = d
		}
		for s, p := range m {
			d[s] = p
		}
	}
}

type poolState struct {
	pass *Pass
}

// recordEscapes scans e for calls that let a pooled pointer argument
// escape, per the callee's effects (this package's, or the summary its
// package published), and records each as a live store: Put while the
// store stands is then reported by the existing logic.
func (ps *poolState) recordEscapes(e ast.Expr, f *poolFlow) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		var id *ast.Ident
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			id = fun
		case *ast.SelectorExpr:
			id = fun.Sel
		default:
			return true
		}
		fn, ok := ps.pass.Info.Uses[id].(*types.Func)
		if !ok || fn.Pkg() == nil {
			return true
		}
		callee := ps.pass.effects.calleeEffects(fn)
		if callee == nil {
			return true
		}
		for _, pi := range sortedKeys(callee.escapeParams) {
			if pi >= len(call.Args) {
				continue
			}
			obj := ps.pooledIdent(call.Args[pi])
			if obj == nil {
				continue
			}
			m := f.stores[obj]
			if m == nil {
				m = map[string]token.Pos{}
				f.stores[obj] = m
			}
			m["a location kept by "+calleeName(fn)] = call.Pos()
		}
		return true
	})
}

// block runs the flow over a statement list, mutating and returning f.
func (ps *poolState) block(stmts []ast.Stmt, f *poolFlow) *poolFlow {
	for _, stmt := range stmts {
		if f.terminated {
			// Unreachable code: stop rather than report nonsense.
			return f
		}
		ps.stmt(stmt, f)
	}
	return f
}

func (ps *poolState) stmt(stmt ast.Stmt, f *poolFlow) {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		if obj, ok := ps.putArg(s.X); ok {
			if _, dead := f.dead[obj]; dead {
				ps.pass.Reportf(s.Pos(), "double Put of pooled object %s (already recycled)", obj.Name())
			}
			// A location still holding the pointer outlives the Put.
			var dests []string
			for dest := range f.stores[obj] {
				dests = append(dests, dest)
			}
			sort.Strings(dests)
			for _, dest := range dests {
				ps.pass.Reportf(s.Pos(), "pooled object %s is recycled while still stored in %s; clear the reference before Put", obj.Name(), dest)
			}
			delete(f.stores, obj)
			f.dead[obj] = s.Pos()
			return
		}
		ps.checkUses(s.X, f)
		ps.recordEscapes(s.X, f)
		if isTerminalCall(s.X) {
			f.terminated = true
		}
	case *ast.AssignStmt:
		for _, rhs := range s.Rhs {
			ps.checkUses(rhs, f)
			ps.recordEscapes(rhs, f)
		}
		for i, lhs := range s.Lhs {
			ps.assign(lhs, rhsFor(s.Rhs, i), f)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						ps.checkUses(v, f)
					}
				}
			}
		}
	case *ast.IfStmt:
		if s.Init != nil {
			ps.stmt(s.Init, f)
		}
		ps.checkUses(s.Cond, f)
		then := ps.block(s.Body.List, f.clone())
		var els *poolFlow
		if s.Else != nil {
			els = f.clone()
			ps.stmt(s.Else, els)
		}
		if s.Else != nil && then.terminated && els.terminated {
			f.terminated = true
			return
		}
		f.merge(then)
		f.merge(els)
	case *ast.ForStmt:
		if s.Init != nil {
			ps.stmt(s.Init, f)
		}
		if s.Cond != nil {
			ps.checkUses(s.Cond, f)
		}
		body := ps.block(s.Body.List, f.clone())
		if s.Post != nil {
			ps.stmt(s.Post, body)
		}
		f.merge(body)
	case *ast.RangeStmt:
		ps.checkUses(s.X, f)
		f.merge(ps.block(s.Body.List, f.clone()))
	case *ast.SwitchStmt:
		if s.Init != nil {
			ps.stmt(s.Init, f)
		}
		if s.Tag != nil {
			ps.checkUses(s.Tag, f)
		}
		ps.caseClauses(s.Body, f)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			ps.stmt(s.Init, f)
		}
		ps.caseClauses(s.Body, f)
	case *ast.BlockStmt:
		nested := ps.block(s.List, f.clone())
		f.merge(nested)
		f.terminated = f.terminated || nested.terminated
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			ps.checkUses(r, f)
		}
		f.terminated = true
	case *ast.BranchStmt:
		f.terminated = true
	case *ast.DeferStmt, *ast.GoStmt:
		var call *ast.CallExpr
		if d, ok := s.(*ast.DeferStmt); ok {
			call = d.Call
		} else {
			call = s.(*ast.GoStmt).Call
		}
		ps.checkUses(call, f)
	case *ast.LabeledStmt:
		ps.stmt(s.Stmt, f)
	case *ast.SendStmt:
		ps.checkUses(s.Chan, f)
		ps.checkUses(s.Value, f)
	case *ast.IncDecStmt:
		ps.checkUses(s.X, f)
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				f.merge(ps.block(cc.Body, f.clone()))
			}
		}
	}
}

// caseClauses joins the arms of a switch body.
func (ps *poolState) caseClauses(body *ast.BlockStmt, f *poolFlow) {
	hasDefault := false
	var exits []*poolFlow
	for _, c := range body.List {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
		}
		for _, e := range cc.List {
			ps.checkUses(e, f)
		}
		exits = append(exits, ps.block(cc.Body, f.clone()))
	}
	allTerm := len(exits) > 0
	for _, e := range exits {
		if !e.terminated {
			allTerm = false
		}
	}
	if hasDefault && allTerm {
		f.terminated = true
		return
	}
	for _, e := range exits {
		f.merge(e)
	}
}

// assign processes one LHS <- RHS pair: reviving a reassigned pooled
// variable, recording stores of pooled pointers into longer-lived
// destinations, and clearing previously recorded stores.
func (ps *poolState) assign(lhs ast.Expr, rhs ast.Expr, f *poolFlow) {
	switch l := lhs.(type) {
	case *ast.Ident:
		if obj := ps.pass.ObjectOf(l); obj != nil {
			delete(f.dead, obj) // rebound: the old pointer is gone
			delete(f.stores, obj)
		}
		return
	case *ast.SelectorExpr, *ast.IndexExpr:
		dest := exprString(ps.pass.Fset, lhs)
		// Overwriting a destination clears whatever pooled pointer we
		// recorded there.
		for _, m := range f.stores {
			delete(m, dest)
		}
		// A pooled pointer stored into a field or element of something
		// else survives this event unless cleared before Put.
		if obj := ps.pooledIdent(rhs); obj != nil && !ps.selfStore(l, obj) {
			m := f.stores[obj]
			if m == nil {
				m = map[string]token.Pos{}
				f.stores[obj] = m
			}
			m[dest] = lhs.Pos()
		}
	}
	ps.checkUses(lhs, f)
}

// selfStore reports whether the destination is a field of the pooled
// object itself (x.f = x patterns are self-references, freed together).
func (ps *poolState) selfStore(lhs ast.Expr, obj types.Object) bool {
	for {
		switch l := lhs.(type) {
		case *ast.SelectorExpr:
			lhs = l.X
		case *ast.IndexExpr:
			lhs = l.X
		case *ast.Ident:
			return ps.pass.ObjectOf(l) == obj
		default:
			return false
		}
	}
}

// pooledIdent returns the object of rhs if it is an identifier of a
// pointer type produced by a sim.Pool (heuristic: pointer-typed local
// whose type is also the element type of some Pool use is too broad, so
// we only track identifiers that were ever passed to Put/returned by Get
// — approximated by: pointer-typed identifier).
func (ps *poolState) pooledIdent(rhs ast.Expr) types.Object {
	id, ok := rhs.(*ast.Ident)
	if !ok {
		return nil
	}
	obj := ps.pass.ObjectOf(id)
	if obj == nil {
		return nil
	}
	if _, ok := obj.Type().(*types.Pointer); !ok {
		return nil
	}
	return obj
}

// putArg matches `pool.Put(x)` where pool has type sim.Pool and x is a
// plain identifier, returning x's object.
func (ps *poolState) putArg(e ast.Expr) (types.Object, bool) {
	call, ok := e.(*ast.CallExpr)
	if !ok || len(call.Args) != 1 {
		return nil, false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Put" {
		return nil, false
	}
	if t := ps.pass.TypeOf(sel.X); t == nil || !isPoolType(t) {
		return nil, false
	}
	id, ok := call.Args[0].(*ast.Ident)
	if !ok {
		return nil, false
	}
	obj := ps.pass.ObjectOf(id)
	if obj == nil {
		return nil, false
	}
	return obj, true
}

// checkUses reports reads of recycled objects inside e. Uses within
// function literals count: a closure created after Put runs after Put.
func (ps *poolState) checkUses(e ast.Expr, f *poolFlow) {
	if e == nil || len(f.dead) == 0 {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := ps.pass.ObjectOf(id)
		if obj == nil {
			return true
		}
		if _, dead := f.dead[obj]; dead {
			ps.pass.Reportf(id.Pos(), "use of pooled object %s after Put (recycled at line %d)",
				obj.Name(), ps.pass.Fset.Position(f.dead[obj]).Line)
			// Report each object once per path to avoid cascades.
			delete(f.dead, obj)
		}
		return true
	})
}

// rhsFor pairs the i-th LHS with its RHS (nil for multi-value calls).
func rhsFor(rhs []ast.Expr, i int) ast.Expr {
	if len(rhs) == 1 && i > 0 {
		return nil // x, y := f()
	}
	if i < len(rhs) {
		return rhs[i]
	}
	return nil
}

// isTerminalCall reports whether e is a call that never returns.
func isTerminalCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		if pkg, ok := fun.X.(*ast.Ident); ok {
			return (pkg.Name == "os" && fun.Sel.Name == "Exit") ||
				(pkg.Name == "log" && strings.HasPrefix(fun.Sel.Name, "Fatal"))
		}
	}
	return false
}

// exprString renders an expression for diagnostics and store keys.
func exprString(fset *token.FileSet, e ast.Expr) string {
	var b strings.Builder
	_ = printer.Fprint(&b, fset, e)
	return b.String()
}
