package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
)

// maxEffectSites bounds each category of a function's effects: one
// site proves the effect; a few more help diagnostics, cascades do not.
const maxEffectSites = 4

// DefaultModelPackages are the packages whose state is "the simulation"
// for purposes of the hookpure mutation rule: a hook writing through a
// pointer into any of these perturbs the run it observes.
var DefaultModelPackages = []string{
	"latsim/internal/sim",
	"latsim/internal/memsys",
	"latsim/internal/msync",
	"latsim/internal/cpu",
	"latsim/internal/mem",
	"latsim/internal/machine",
	"latsim/internal/stats",
	"latsim/internal/dirset",
	"latsim/internal/config",
}

// effects is the interprocedural side-effect summary of one function.
// Callers in the same package and, through the summaries a package
// publishes, callers in dependent packages fold it in at each call site.
type effects struct {
	// allocs are the heap-allocation sites (make/new/append, escaping
	// composite literals, string building, fmt) not justified by a
	// //hookpure:alloc marker.
	allocs []effectAt
	// schedules are calls that enqueue or perturb kernel work
	// (sim.Kernel scheduling, sim.Resource acquisition).
	schedules []effectAt
	// modelWrites are writes that land in simulation-model state — the
	// target is reached through a pointer into a model package's type.
	modelWrites []effectAt
	// globalWrites are writes to package-level variables.
	globalWrites []effectAt
	// mutRecv records that the function writes through its receiver.
	mutRecv bool
	// mutParams holds the parameter indices the function writes through.
	mutParams map[int]bool
	// escapeParams holds the parameter indices whose pointer is stored
	// in a location that outlives the call (a field, element or global),
	// here or by a callee it is passed on to — the interprocedural half
	// of poolsafety.
	escapeParams map[int]bool
}

// effectAt locates and describes one effect site for diagnostics.
type effectAt struct {
	pos  token.Pos
	what string
}

func (e *effects) addAlloc(pos token.Pos, what string) { e.allocs = addSite(e.allocs, pos, what) }
func (e *effects) addSchedule(pos token.Pos, what string) {
	e.schedules = addSite(e.schedules, pos, what)
}
func (e *effects) addModel(pos token.Pos, what string) {
	e.modelWrites = addSite(e.modelWrites, pos, what)
}
func (e *effects) addGlobal(pos token.Pos, what string) {
	e.globalWrites = addSite(e.globalWrites, pos, what)
}

func addSite(s []effectAt, pos token.Pos, what string) []effectAt {
	if len(s) >= maxEffectSites {
		return s
	}
	return append(s, effectAt{pos, what})
}

func newEffects() *effects {
	return &effects{mutParams: map[int]bool{}, escapeParams: map[int]bool{}}
}

// weight counts e's recorded effects. Each part only grows as a
// function's callees' effects grow, so an unchanged weight means
// unchanged effects.
func (e *effects) weight() int {
	w := len(e.allocs) + len(e.schedules) + len(e.modelWrites) + len(e.globalWrites) +
		len(e.mutParams) + len(e.escapeParams)
	if e.mutRecv {
		w++
	}
	return w
}

func sortedKeys(m map[int]bool) []int {
	var out []int
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// effectsComputer computes the effects of every function one package
// declares, bottom-up, consulting the summaries of imported packages
// for cross-package calls.
type effectsComputer struct {
	pass       *Pass
	modelPkgs  map[string]bool
	allocMarks map[string]map[int]markerAt // //hookpure:alloc suppressions
	funcs      []*types.Func               // declared functions, in source order
	decls      map[types.Object]*ast.FuncDecl
	memo       map[types.Object]*effects
	active     map[types.Object]bool
	recursive  bool // a call reached a function whose effects were still being computed
}

// newEffectsComputer computes the effects of every function declared
// in pass's files, in source order.
func newEffectsComputer(pass *Pass, modelPkgs []string, allocMarks map[string]map[int]markerAt) *effectsComputer {
	ec := &effectsComputer{
		pass:       pass,
		modelPkgs:  map[string]bool{},
		allocMarks: allocMarks,
		decls:      map[types.Object]*ast.FuncDecl{},
		memo:       map[types.Object]*effects{},
		active:     map[types.Object]bool{},
	}
	for _, p := range modelPkgs {
		ec.modelPkgs[p] = true
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				if obj, ok := pass.Info.Defs[fn.Name].(*types.Func); ok {
					ec.funcs = append(ec.funcs, obj)
					ec.decls[obj] = fn
				}
			}
		}
	}
	for _, fn := range ec.funcs {
		ec.of(fn)
	}
	// A call that reached a function whose effects were still being
	// computed read them as none. Recompute every function, each reading
	// the others' latest effects, until a round changes no function's
	// weight: effects only grow as their callees' do, and they are
	// bounded, so that is a fixpoint, and every member of a recursion
	// cycle carries all the cycle reaches, whichever was entered first.
	for changed := ec.recursive; changed; {
		changed = false
		for _, fn := range ec.funcs {
			e := ec.compute(ec.decls[fn])
			changed = changed || e.weight() != ec.memo[fn].weight()
			ec.memo[fn] = e
		}
	}
	return ec
}

// calleeEffects returns the effects of fn: this package's own, or the
// summary fn's package published; nil when neither knows fn.
func (ec *effectsComputer) calleeEffects(fn *types.Func) *effects {
	if fn.Pkg() == ec.pass.Pkg {
		return ec.of(fn)
	}
	if s := ec.pass.imported(fn); s != nil {
		return s.eff
	}
	return nil
}

// of returns the effects of a package-level function by object,
// computing and memoizing on first use. A recursive call reads none
// (newEffectsComputer then recomputes to a fixpoint).
func (ec *effectsComputer) of(obj types.Object) *effects {
	if e, ok := ec.memo[obj]; ok {
		return e
	}
	if ec.active[obj] {
		ec.recursive = true
		return newEffects()
	}
	decl, ok := ec.decls[obj]
	if !ok {
		return newEffects()
	}
	ec.active[obj] = true
	e := ec.compute(decl)
	delete(ec.active, obj)
	ec.memo[obj] = e
	return e
}

// compute walks one function body.
func (ec *effectsComputer) compute(fn *ast.FuncDecl) *effects {
	eff := newEffects()
	recv, params := funcBindings(ec.pass, fn)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			if x.Tok == token.DEFINE {
				ec.checkEscapes(x, recv, params, eff)
				return true
			}
			for _, lhs := range x.Lhs {
				ec.write(lhs, recv, params, eff)
			}
			ec.checkEscapes(x, recv, params, eff)
		case *ast.IncDecStmt:
			ec.write(x.X, recv, params, eff)
		case *ast.CallExpr:
			ec.call(x, recv, params, eff)
		case *ast.CompositeLit:
			switch ec.pass.TypeOf(x).(type) {
			case nil:
			default:
				switch ec.pass.TypeOf(x).Underlying().(type) {
				case *types.Map:
					ec.alloc(x.Pos(), "map literal", eff)
				case *types.Slice:
					ec.alloc(x.Pos(), "slice literal", eff)
				}
			}
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if _, ok := x.X.(*ast.CompositeLit); ok {
					ec.alloc(x.Pos(), "escaping composite literal", eff)
				}
			}
		case *ast.BinaryExpr:
			if x.Op == token.ADD {
				if t := ec.pass.TypeOf(x); t != nil {
					if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
						ec.alloc(x.Pos(), "string concatenation", eff)
					}
				}
			}
		case *ast.FuncLit:
			ec.alloc(x.Pos(), "function literal (closure allocation)", eff)
			// Keep walking: the closure may run synchronously, so its
			// body's effects are charged to the enclosing function.
		}
		return true
	})
	return eff
}

// alloc records an allocation site unless a //hookpure:alloc marker
// with a reason justifies it.
func (ec *effectsComputer) alloc(pos token.Pos, what string, eff *effects) {
	if suppressed(ec.allocMarks, ec.pass.Fset, pos) {
		return
	}
	eff.addAlloc(pos, what)
}

// write classifies one write target.
func (ec *effectsComputer) write(lhs ast.Expr, recv types.Object, params map[types.Object]int, eff *effects) {
	kind, idx := ec.classify(lhs, recv, params)
	switch kind {
	case tModel:
		eff.addModel(lhs.Pos(), "assignment into model state")
	case tGlobal:
		eff.addGlobal(lhs.Pos(), "write to package-level variable "+rootName(lhs))
	case tRecv:
		eff.mutRecv = true
	case tParam:
		eff.mutParams[idx] = true
	}
}

// checkEscapes records pointer parameters stored into locations that
// outlive the call: any assignment whose destination is not a plain
// local identifier and whose source is a parameter.
func (ec *effectsComputer) checkEscapes(as *ast.AssignStmt, recv types.Object, params map[types.Object]int, eff *effects) {
	for i, rhs := range as.Rhs {
		// Unwrap append(dst, p...) — storing into a slice escapes too.
		exprs := []ast.Expr{rhs}
		if call, ok := rhs.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "append" {
				exprs = call.Args
			}
		}
		for _, e := range exprs {
			id, ok := e.(*ast.Ident)
			if !ok {
				continue
			}
			obj := ec.pass.ObjectOf(id)
			pi, isParam := params[obj]
			if !isParam {
				continue
			}
			if _, ok := obj.Type().(*types.Pointer); !ok {
				continue
			}
			if i < len(as.Lhs) || len(as.Lhs) == 1 {
				lhs := as.Lhs[0]
				if i < len(as.Lhs) {
					lhs = as.Lhs[i]
				}
				switch lhs.(type) {
				case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
					eff.escapeParams[pi] = true
				case *ast.Ident:
					if kind, _ := ec.classify(lhs, recv, params); kind == tGlobal {
						eff.escapeParams[pi] = true
					}
				}
			}
		}
	}
}

// target classification kinds.
type targetKind int

const (
	tLocal targetKind = iota
	tRecv
	tParam
	tGlobal
	tModel
)

// classify resolves a write/receiver expression to the owner of the
// memory it designates: the function's receiver, a parameter, a local,
// a package-level variable — or, when the selector chain crosses a
// pointer into a model-package type, the simulation model itself.
func (ec *effectsComputer) classify(e ast.Expr, recv types.Object, params map[types.Object]int) (targetKind, int) {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.Ident:
			obj := ec.pass.ObjectOf(x)
			if obj == nil {
				return tLocal, 0
			}
			if obj == recv {
				return tRecv, 0
			}
			if i, ok := params[obj]; ok {
				return tParam, i
			}
			if v, ok := obj.(*types.Var); ok && v.Parent() == ec.pass.Pkg.Scope() {
				return tGlobal, 0
			}
			return tLocal, 0
		case *ast.SelectorExpr:
			if _, isIdent := x.X.(*ast.Ident); !isIdent && ec.isModelPtr(ec.pass.TypeOf(x.X)) {
				return tModel, 0
			}
			if id, ok := x.X.(*ast.Ident); ok {
				// Root reached: a selector through a *non-root* pointer
				// into model state is a model write even when the root
				// is local (h := n.home(a); h.x = 1).
				obj := ec.pass.ObjectOf(id)
				if obj != nil && obj != recv {
					if _, isParam := params[obj]; !isParam {
						if ec.isModelPtr(obj.Type()) {
							return tModel, 0
						}
					}
				}
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			if _, isIdent := x.X.(*ast.Ident); !isIdent && ec.isModelPtr(ec.pass.TypeOf(x.X)) {
				return tModel, 0
			}
			e = x.X
		default:
			return tLocal, 0
		}
	}
}

// isModelPtr reports whether t is a pointer to a named type declared in
// a model package.
func (ec *effectsComputer) isModelPtr(t types.Type) bool {
	if t == nil {
		return false
	}
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := p.Elem().(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return ec.modelPkgs[basePkgPath(named.Obj().Pkg().Path())]
}

// call folds a callee's effects into the caller at the call site.
func (ec *effectsComputer) call(call *ast.CallExpr, recv types.Object, params map[types.Object]int, eff *effects) {
	fun := ast.Unparen(call.Fun)
	var calleeID *ast.Ident
	var recvExpr ast.Expr
	switch f := fun.(type) {
	case *ast.Ident:
		calleeID = f
	case *ast.SelectorExpr:
		calleeID = f.Sel
		recvExpr = f.X
	default:
		return // call through a function value: unknown, assumed pure
	}
	obj := ec.pass.Info.Uses[calleeID]
	if obj == nil {
		obj = ec.pass.Info.Defs[calleeID]
	}
	switch o := obj.(type) {
	case *types.Builtin:
		switch o.Name() {
		case "append":
			ec.alloc(call.Pos(), "append", eff)
		case "make":
			ec.alloc(call.Pos(), "make", eff)
		case "new":
			ec.alloc(call.Pos(), "new", eff)
		}
		return
	case *types.TypeName:
		// Conversion: string <-> []byte/[]rune copies.
		if t := ec.pass.TypeOf(call); t != nil {
			switch u := t.Underlying().(type) {
			case *types.Basic:
				if u.Info()&types.IsString != 0 && len(call.Args) == 1 {
					if at := ec.pass.TypeOf(call.Args[0]); at != nil {
						if _, isSlice := at.Underlying().(*types.Slice); isSlice {
							ec.alloc(call.Pos(), "[]byte-to-string conversion", eff)
						}
					}
				}
			case *types.Slice:
				if len(call.Args) == 1 {
					if at := ec.pass.TypeOf(call.Args[0]); at != nil {
						if b, isBasic := at.Underlying().(*types.Basic); isBasic && b.Info()&types.IsString != 0 {
							ec.alloc(call.Pos(), "string-to-slice conversion", eff)
						}
					}
				}
			}
		}
		return
	}
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}

	callee := ec.calleeEffects(fn)
	if callee == nil {
		if fn.Pkg().Path() == "fmt" {
			// The one stdlib package hooks reach for by accident;
			// everything in it formats through reflection and allocates.
			ec.alloc(call.Pos(), "fmt."+fn.Name(), eff)
		}
		return // out-of-module with no summary: assumed pure
	}

	name := calleeName(fn)
	if len(callee.allocs) > 0 {
		ec.alloc(call.Pos(), fmt.Sprintf("call to %s (%s)", name, ec.site(callee.allocs[0])), eff)
	}
	if len(callee.schedules) > 0 {
		eff.addSchedule(call.Pos(), fmt.Sprintf("call to %s (%s)", name, callee.schedules[0].what))
	}
	if len(callee.modelWrites) > 0 {
		eff.addModel(call.Pos(), fmt.Sprintf("call to %s (%s)", name, ec.site(callee.modelWrites[0])))
	}
	if len(callee.globalWrites) > 0 {
		eff.addGlobal(call.Pos(), fmt.Sprintf("call to %s (%s)", name, ec.site(callee.globalWrites[0])))
	}
	if callee.mutRecv {
		if isKernelMethod(fn) {
			// Mutating the kernel or a resource is scheduling no matter
			// how the receiver was reached (field, local, parameter).
			eff.addSchedule(call.Pos(), fmt.Sprintf("call to %s schedules or perturbs kernel work", name))
		} else if recvExpr != nil {
			kind, idx := ec.classify(recvExpr, recv, params)
			switch kind {
			case tModel:
				eff.addModel(call.Pos(), fmt.Sprintf("call to %s mutates model state", name))
			case tGlobal:
				eff.addGlobal(call.Pos(), fmt.Sprintf("call to %s mutates package-level state", name))
			case tRecv:
				eff.mutRecv = true
			case tParam:
				eff.mutParams[idx] = true
			}
		}
	}
	for _, pi := range sortedKeys(callee.mutParams) {
		if pi >= len(call.Args) {
			continue
		}
		arg := ast.Unparen(call.Args[pi])
		if u, ok := arg.(*ast.UnaryExpr); ok && u.Op == token.AND {
			arg = u.X
		}
		kind, idx := ec.classify(arg, recv, params)
		switch kind {
		case tModel:
			eff.addModel(call.Pos(), fmt.Sprintf("call to %s mutates model state through argument %d", name, pi))
		case tGlobal:
			eff.addGlobal(call.Pos(), fmt.Sprintf("call to %s mutates package-level state through argument %d", name, pi))
		case tRecv:
			eff.mutRecv = true
		case tParam:
			eff.mutParams[idx] = true
		}
	}
	// A pointer parameter passed on to a callee that keeps it escapes
	// here too, so poolsafety sees through forwarding wrappers.
	for _, pi := range sortedKeys(callee.escapeParams) {
		if pi >= len(call.Args) {
			continue
		}
		if id, ok := ast.Unparen(call.Args[pi]).(*ast.Ident); ok {
			obj := ec.pass.ObjectOf(id)
			if idx, isParam := params[obj]; isParam {
				if _, ok := obj.Type().(*types.Pointer); ok {
					eff.escapeParams[idx] = true
				}
			}
		}
	}
}

// site renders a callee's effect site as "what at file.go:line".
func (ec *effectsComputer) site(s effectAt) string {
	p := ec.pass.Fset.Position(s.pos)
	return fmt.Sprintf("%s at %s:%d", s.what, filepath.Base(p.Filename), p.Line)
}

// isKernelMethod reports whether fn is a method on the simulation
// kernel or one of its resources — mutation there is "scheduling".
func isKernelMethod(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	if named.Obj().Pkg().Path() != poolPkgPath {
		return false
	}
	return named.Obj().Name() == "Kernel" || named.Obj().Name() == "Resource"
}

// calleeName renders a function for diagnostics: pkg.F or (pkg.T).M.
func calleeName(fn *types.Func) string {
	sig := fn.Type().(*types.Signature)
	if recv := sig.Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return fmt.Sprintf("(%s.%s).%s", fn.Pkg().Name(), named.Obj().Name(), fn.Name())
		}
	}
	return fn.Pkg().Name() + "." + fn.Name()
}

// funcBindings resolves a declaration's receiver object and parameter
// index map.
func funcBindings(pass *Pass, fn *ast.FuncDecl) (types.Object, map[types.Object]int) {
	var recv types.Object
	if fn.Recv != nil && len(fn.Recv.List) == 1 && len(fn.Recv.List[0].Names) == 1 {
		recv = pass.Info.Defs[fn.Recv.List[0].Names[0]]
	}
	params := map[types.Object]int{}
	i := 0
	if fn.Type.Params != nil {
		for _, field := range fn.Type.Params.List {
			if len(field.Names) == 0 {
				i++
				continue
			}
			for _, name := range field.Names {
				if obj := pass.Info.Defs[name]; obj != nil {
					params[obj] = i
				}
				i++
			}
		}
	}
	return recv, params
}

// rootName names the root identifier of an lvalue chain for messages.
func rootName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}
