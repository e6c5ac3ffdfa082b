package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
)

// FnEffects is the interprocedural side-effect summary of one function,
// exported as an object fact so dependent packages can reason about
// calls into it without seeing its body. hookpure computes and exports
// these under its own namespace.
type FnEffects struct {
	// Allocs are the heap-allocation sites (make/new/append, escaping
	// composite literals, string building, fmt) not justified by a
	// //hookpure:alloc marker.
	Allocs []EffectSite `json:"allocs,omitempty"`
	// Schedules are calls that enqueue or perturb kernel work
	// (sim.Kernel scheduling, sim.Resource acquisition).
	Schedules []EffectSite `json:"schedules,omitempty"`
	// ModelWrites are writes that land in simulation-model state — the
	// target is reached through a pointer into a model package's type.
	ModelWrites []EffectSite `json:"model_writes,omitempty"`
	// GlobalWrites are writes to package-level variables.
	GlobalWrites []EffectSite `json:"global_writes,omitempty"`
	// MutRecv records that the function writes through its receiver.
	MutRecv bool `json:"mut_recv,omitempty"`
	// MutParams lists parameter indices the function writes through.
	MutParams []int `json:"mut_params,omitempty"`
	// EscapeParams lists parameter indices whose pointer is stored in a
	// location that outlives the call (a field, element, global, or an
	// escaping callee) — the interprocedural half of poolsafety.
	EscapeParams []int `json:"escape_params,omitempty"`
}

// AFact marks FnEffects as a fact type.
func (*FnEffects) AFact() {}

// EffectSite locates and describes one effect for diagnostics.
type EffectSite struct {
	Pos  string `json:"pos"`
	What string `json:"what"`
}

// maxEffectSites bounds each category in the serialized fact: one site
// proves the effect; a few more help diagnostics, cascades do not.
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

// effects is the in-package working form of FnEffects, with real
// positions for local reporting.
type effects struct {
	allocs       []localSite
	schedules    []localSite
	modelWrites  []localSite
	globalWrites []localSite
	mutRecv      bool
	mutParams    map[int]bool
	escapeParams map[int]bool
}

type localSite struct {
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

func addSite(s []localSite, pos token.Pos, what string) []localSite {
	if len(s) >= maxEffectSites {
		return s
	}
	return append(s, localSite{pos, what})
}

func newEffects() *effects {
	return &effects{mutParams: map[int]bool{}, escapeParams: map[int]bool{}}
}

// fact converts to the serialized form.
func (e *effects) fact(fset *token.FileSet) *FnEffects {
	conv := func(sites []localSite) []EffectSite {
		var out []EffectSite
		for _, s := range sites {
			p := fset.Position(s.pos)
			out = append(out, EffectSite{
				Pos:  fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line),
				What: s.what,
			})
		}
		return out
	}
	return &FnEffects{
		Allocs:       conv(e.allocs),
		Schedules:    conv(e.schedules),
		ModelWrites:  conv(e.modelWrites),
		GlobalWrites: conv(e.globalWrites),
		MutRecv:      e.mutRecv,
		MutParams:    sortedKeys(e.mutParams),
		EscapeParams: sortedKeys(e.escapeParams),
	}
}

func sortedKeys(m map[int]bool) []int {
	var out []int
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// effectsComputer computes per-function effects bottom-up within one
// package, consulting imported FnEffects facts for cross-package calls
// and exporting facts for this package's own functions.
type effectsComputer struct {
	pass       *Pass
	modelPkgs  map[string]bool
	allocMarks map[string]map[int]markerAt // //hookpure:alloc suppressions
	decls      map[types.Object]*ast.FuncDecl
	memo       map[types.Object]*effects
	active     map[types.Object]bool
}

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
				if obj := pass.Info.Defs[fn.Name]; obj != nil {
					ec.decls[obj] = fn
				}
			}
		}
	}
	return ec
}

// exportAll computes and exports a FnEffects fact for every function
// declared in the package, in deterministic order.
func (ec *effectsComputer) exportAll() {
	objs := make([]types.Object, 0, len(ec.decls))
	for obj := range ec.decls {
		objs = append(objs, obj)
	}
	sort.Slice(objs, func(i, j int) bool { return objs[i].Pos() < objs[j].Pos() })
	for _, obj := range objs {
		ec.pass.ExportObjectFact(obj, ec.of(obj).fact(ec.pass.Fset))
	}
}

// of returns the effects of a package-level function by object,
// computing and memoizing on first use. Recursion cycles contribute
// nothing (lint fixpoint: a cycle's effects surface at its entry edges).
func (ec *effectsComputer) of(obj types.Object) *effects {
	if e, ok := ec.memo[obj]; ok {
		return e
	}
	if ec.active[obj] {
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

	var callee FnEffects
	known := false
	if fn.Pkg() == ec.pass.Pkg {
		callee = *ec.of(obj).fact(ec.pass.Fset)
		known = true
	} else if ec.pass.ImportObjectFact(fn, &callee) {
		known = true
	} else if fn.Pkg().Path() == "fmt" {
		// The one stdlib package hooks reach for by accident; everything
		// in it formats through reflection and allocates.
		ec.alloc(call.Pos(), "fmt."+fn.Name(), eff)
		return
	}
	if !known {
		return // out-of-module with no fact: assumed pure
	}

	name := calleeName(fn)
	if len(callee.Allocs) > 0 {
		ec.alloc(call.Pos(), fmt.Sprintf("call to %s (%s at %s)", name, callee.Allocs[0].What, callee.Allocs[0].Pos), eff)
	}
	if len(callee.Schedules) > 0 {
		eff.addSchedule(call.Pos(), fmt.Sprintf("call to %s (%s)", name, callee.Schedules[0].What))
	}
	if len(callee.ModelWrites) > 0 {
		eff.addModel(call.Pos(), fmt.Sprintf("call to %s (%s at %s)", name, callee.ModelWrites[0].What, callee.ModelWrites[0].Pos))
	}
	if len(callee.GlobalWrites) > 0 {
		eff.addGlobal(call.Pos(), fmt.Sprintf("call to %s (%s at %s)", name, callee.GlobalWrites[0].What, callee.GlobalWrites[0].Pos))
	}
	if callee.MutRecv {
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
	for _, pi := range callee.MutParams {
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
