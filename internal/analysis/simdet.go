package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// DefaultSimdetPackages are the event-scheduled packages that must stay
// deterministic: every run with the same seed must produce the same
// event order and the same output bytes. Host-side packages
// (internal/runner, cmd/*) may use wall-clock time and are not listed.
var DefaultSimdetPackages = []string{
	"latsim/internal/sim",
	"latsim/internal/memsys",
	"latsim/internal/cpu",
	"latsim/internal/msync",
	"latsim/internal/check",
	"latsim/internal/obs/diff",
}

// UnorderedMarker is the justification comment that suppresses the map
// iteration diagnostic on the line it annotates (or the line above):
// the author asserts the loop is order-insensitive for reasons the
// analyzer cannot prove.
const UnorderedMarker = "//simdet:unordered"

// NewSimdet returns the simdet analyzer restricted to the given package
// paths (DefaultSimdetPackages when empty). Inside those packages it
// forbids:
//
//   - wall-clock time (time.Now, Since, Until, Sleep, After, Tick,
//     NewTimer, NewTicker): simulated time comes from the kernel;
//   - the global math/rand source (seeded per-run randomness via
//     rand.New(rand.NewSource(seed)) is fine);
//   - ranging over a map, unless the body is recognizably
//     order-insensitive (counter updates, per-key writes, deletes) or
//     the site carries a //simdet:unordered justification;
//   - ranging over any map whose expression names a sharer collection
//     (contains "sharer", case-insensitively), regardless of the body:
//     sharer sets must live behind dirset, whose Next walks them in
//     ascending order by contract;
//   - a package-level var outside test files: the runner executes
//     concurrent jobs in one process, so such a variable is state that
//     every run shares.
func NewSimdet(pkgPaths ...string) *Analyzer {
	if len(pkgPaths) == 0 {
		pkgPaths = DefaultSimdetPackages
	}
	scheduled := map[string]bool{}
	for _, p := range pkgPaths {
		scheduled[p] = true
	}
	a := &Analyzer{
		Name: "simdet",
		Doc:  "forbid wall-clock time, global math/rand, order-dependent map iteration and package-level vars in event-scheduled packages",
	}
	a.Run = func(pass *Pass) error {
		if !scheduled[basePkgPath(pass.Pkg.Path())] {
			return nil
		}
		for _, file := range pass.Files {
			if !strings.HasSuffix(pass.Fset.Position(file.Pos()).Filename, "_test.go") {
				checkPackageVars(pass, file)
			}
			marked := unorderedLines(pass.Fset, file)
			ast.Inspect(file, func(n ast.Node) bool {
				switch e := n.(type) {
				case *ast.SelectorExpr:
					checkTimeAndRand(pass, e)
				case *ast.RangeStmt:
					checkMapRange(pass, e, marked)
				}
				return true
			})
		}
		return nil
	}
	return a
}

// checkPackageVars flags every package-level var declared in file.
func checkPackageVars(pass *Pass, file *ast.File) {
	for _, decl := range file.Decls {
		d, ok := decl.(*ast.GenDecl)
		if !ok || d.Tok != token.VAR {
			continue
		}
		for _, spec := range d.Specs {
			for _, name := range spec.(*ast.ValueSpec).Names {
				if name.Name != "_" {
					pass.Reportf(name.Pos(),
						"package-level var %s is shared by every run in the process; concurrent runner jobs would race on it — keep it on a per-run value", name.Name)
				}
			}
		}
	}
}

var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "Tick": true, "NewTimer": true, "NewTicker": true,
}

// globalRandOK lists math/rand package-level functions that construct
// explicit sources rather than draw from the shared global one.
var globalRandOK = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

func checkTimeAndRand(pass *Pass, sel *ast.SelectorExpr) {
	obj := pass.Info.Uses[sel.Sel]
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	switch fn.Pkg().Path() {
	case "time":
		if wallClockFuncs[fn.Name()] && fn.Type().(*types.Signature).Recv() == nil {
			pass.Reportf(sel.Pos(),
				"wall-clock time.%s in event-scheduled package; simulated time must come from the kernel clock", fn.Name())
		}
	case "math/rand", "math/rand/v2":
		if fn.Type().(*types.Signature).Recv() == nil && !globalRandOK[fn.Name()] {
			pass.Reportf(sel.Pos(),
				"global math/rand source %s is not seeded per run; use rand.New(rand.NewSource(seed))", fn.Name())
		}
	}
}

func checkMapRange(pass *Pass, rs *ast.RangeStmt, marked map[int]bool) {
	t := pass.TypeOf(rs.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	line := pass.Fset.Position(rs.Pos()).Line
	if marked[line] || marked[line-1] {
		return
	}
	// Sharer sets are special-cased: invalidation fan-out order is part
	// of the deterministic event order AND of the dirset representation
	// contract (every View.Next walk is ascending), so a map-backed
	// sharer collection is flagged even when the loop body looks
	// order-insensitive — the representation itself is the bug.
	if mentionsSharer(rs.X) {
		pass.Reportf(rs.Pos(),
			"sharer sets must not be map-backed: invalidation order is part of the deterministic event order; use dirset (View.Next walks ascending) or justify with %s", UnorderedMarker)
		return
	}
	if orderInsensitive(rs.Body.List) {
		return
	}
	pass.Reportf(rs.Pos(),
		"map iteration order reaches order-sensitive code; sort the keys first or justify with %s", UnorderedMarker)
}

// mentionsSharer reports whether the ranged expression names a sharer
// collection (any identifier or field selector containing "sharer",
// case-insensitively).
func mentionsSharer(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok &&
			strings.Contains(strings.ToLower(id.Name), "sharer") {
			found = true
			return false
		}
		return true
	})
	return found
}

// unorderedLines collects the lines carrying a //simdet:unordered
// justification comment.
func unorderedLines(fset *token.FileSet, file *ast.File) map[int]bool {
	lines := map[int]bool{}
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if strings.HasPrefix(c.Text, UnorderedMarker) {
				lines[fset.Position(c.Pos()).Line] = true
			}
		}
	}
	return lines
}

// orderInsensitive conservatively recognizes loop bodies whose effect
// is the same for any iteration order: commutative accumulation
// (x++, x += e, x |= e, ...), per-key map/slice writes, deletes, and
// call-free conditionals around those. Anything else — appends, calls,
// sends, plain overwrites of shared state, control transfer out of the
// loop — is treated as order-dependent.
func orderInsensitive(stmts []ast.Stmt) bool {
	for _, s := range stmts {
		if !orderInsensitiveStmt(s) {
			return false
		}
	}
	return true
}

func orderInsensitiveStmt(s ast.Stmt) bool {
	switch st := s.(type) {
	case *ast.IncDecStmt:
		return callFree(st.X)
	case *ast.AssignStmt:
		switch st.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN,
			token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
			return exprsCallFree(st.Lhs) && exprsCallFree(st.Rhs)
		case token.ASSIGN, token.DEFINE:
			// A write is order-insensitive only when each iteration hits
			// its own slot: an index or selector keyed off loop state
			// cannot be proven here, so only indexed writes qualify.
			for _, l := range st.Lhs {
				switch l.(type) {
				case *ast.IndexExpr:
					// per-element write; assume distinct keys per iteration
				default:
					return false
				}
			}
			return exprsCallFree(st.Lhs) && exprsCallFree(st.Rhs)
		}
		return false
	case *ast.ExprStmt:
		// delete(m, k) removes an element; order never matters.
		if call, ok := st.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "delete" {
				return true
			}
		}
		return false
	case *ast.IfStmt:
		if st.Init != nil || !callFree(st.Cond) {
			return false
		}
		if !orderInsensitive(st.Body.List) {
			return false
		}
		if st.Else != nil {
			return orderInsensitiveStmt(st.Else)
		}
		return true
	case *ast.BlockStmt:
		return orderInsensitive(st.List)
	case *ast.BranchStmt:
		return st.Tok == token.CONTINUE
	}
	return false
}

func exprsCallFree(es []ast.Expr) bool {
	for _, e := range es {
		if !callFree(e) {
			return false
		}
	}
	return true
}

// callFree reports whether e contains no function calls (calls may
// observe iteration order through side effects).
func callFree(e ast.Expr) bool {
	ok := true
	ast.Inspect(e, func(n ast.Node) bool {
		if _, isCall := n.(*ast.CallExpr); isCall {
			ok = false
			return false
		}
		return true
	})
	return ok
}
