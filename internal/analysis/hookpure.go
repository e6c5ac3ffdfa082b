package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// DefaultHookpureTypes are the observability hook types bound by the
// DESIGN.md §4b zero-perturbation contract: the simulator calls their
// methods on the hot path, and an implementation that allocates,
// schedules kernel work or mutates model state perturbs the very run it
// observes.
var DefaultHookpureTypes = []string{
	"latsim/internal/obs.Recorder",
	"latsim/internal/obs/span.Tracer",
	"latsim/internal/obs/span.Span",
	"latsim/internal/check.Checker",
}

// AllocMarker justifies an allocation the contract tolerates — an
// amortized growth path that stabilizes at a high-water mark, or a
// failure path that ends the run: `//hookpure:alloc <reason>`. The
// suppression applies where the allocation happens, so one annotation
// in a helper covers every hook that calls it.
const AllocMarker = "//hookpure:alloc"

// ColdMarker exempts a whole method from the hot-path rules — report
// rendering, constructors-by-another-name: `//hookpure:cold <reason>`
// in the method's doc comment.
const ColdMarker = "//hookpure:cold"

// NewHookpure returns the hookpure analyzer for the given fully
// qualified hook type names (DefaultHookpureTypes when empty). Every
// method on a hook type — and, through the per-function effect summaries
// every package publishes, everything it transitively calls in any
// in-module package — must not:
//
//   - allocate (make/new/append, escaping composite literals, string
//     building, fmt, closures) unless the site carries //hookpure:alloc
//     with a reason;
//   - schedule or perturb kernel work (sim.Kernel scheduling methods,
//     sim.Resource acquisition);
//   - write simulation-model state (anything reached through a pointer
//     into a model package's types) or package-level variables.
//
// Methods marked //hookpure:cold <reason> are off the hot path and
// skipped entirely. Test files are exempt.
func NewHookpure(typeNames ...string) *Analyzer {
	if len(typeNames) == 0 {
		typeNames = DefaultHookpureTypes
	}
	hook := map[string]bool{}
	for _, t := range typeNames {
		hook[t] = true
	}
	a := &Analyzer{
		Name: "hookpure",
		Doc:  "enforce the zero-perturbation contract: hook methods must not allocate, schedule kernel work or mutate simulation state",
	}
	a.Run = func(pass *Pass) error {
		reportEmptyMarkers(pass, pass.effects.allocMarks, AllocMarker)
		coldMarks := markersByFile(pass.Fset, pass.Files, ColdMarker)
		reportEmptyMarkers(pass, coldMarks, ColdMarker)
		for _, file := range pass.Files {
			if strings.HasSuffix(pass.Fset.Position(file.Pos()).Filename, "_test.go") {
				continue
			}
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Recv == nil || fn.Body == nil {
					continue
				}
				typeName := hookReceiverType(pass, fn)
				if !hook[typeName] {
					continue
				}
				if suppressed(coldMarks, pass.Fset, fn.Pos()) {
					continue // declared off the hot path, with a reason
				}
				obj := pass.Info.Defs[fn.Name]
				if obj == nil {
					continue
				}
				reportImpurity(pass, typeName, fn, pass.effects.of(obj))
			}
		}
		return nil
	}
	return a
}

// hookReceiverType names a method's receiver type as "pkgpath.Type",
// accepting pointer and value receivers ("" when unresolvable).
func hookReceiverType(pass *Pass, fn *ast.FuncDecl) string {
	if len(fn.Recv.List) != 1 {
		return ""
	}
	t := pass.TypeOf(fn.Recv.List[0].Type)
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	return basePkgPath(named.Obj().Pkg().Path()) + "." + named.Obj().Name()
}

// reportImpurity turns a hook method's computed effects into
// diagnostics, one per recorded site.
func reportImpurity(pass *Pass, typeName string, fn *ast.FuncDecl, eff *effects) {
	short := typeName[strings.LastIndex(typeName, "/")+1:]
	method := "(" + short + ")." + fn.Name.Name
	for _, s := range eff.allocs {
		pass.Reportf(s.pos,
			"hook method %s allocates on the hot path: %s; the zero-perturbation contract forbids this — annotate %s <why> if amortized, or %s on the method if it is cold",
			method, s.what, AllocMarker, ColdMarker)
	}
	for _, s := range eff.schedules {
		pass.Reportf(s.pos,
			"hook method %s schedules kernel work: %s; hooks must never perturb the event order", method, s.what)
	}
	for _, s := range eff.modelWrites {
		pass.Reportf(s.pos,
			"hook method %s mutates simulation state: %s; hooks observe the run, they must not change it", method, s.what)
	}
	for _, s := range eff.globalWrites {
		pass.Reportf(s.pos,
			"hook method %s writes package-level state: %s; per-run observations belong on the hook value", method, s.what)
	}
}
