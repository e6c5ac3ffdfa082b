// Package analysis is the repo's custom static-analysis suite: a small,
// dependency-free framework in the style of golang.org/x/tools/go/analysis
// (Analyzer, Pass, Diagnostic) plus four codebase-specific analyzers that
// enforce the correctness contracts the simulator's performance work
// depends on:
//
//   - poolsafety: no use of a sim.Pool-managed object after Put, no
//     double-Put, no storing a recycled pointer somewhere it outlives
//     the event that freed it.
//   - nilsafe: every exported method on the nil-guarded hook types
//     (obs.Recorder, span.Tracer, span.Span, check.Checker) checks its
//     receiver for nil before touching any field — the mechanical form
//     of the DESIGN.md §4b zero-perturbation contract.
//   - simdet: the event-scheduled packages (internal/sim, internal/memsys,
//     internal/cpu, internal/msync, internal/check, internal/obs/diff)
//     must stay deterministic: no time.Now, no global math/rand, no
//     package-level var, and no ranging over a map unless the loop body
//     is order-insensitive or the site carries an explicit
//     //simdet:unordered justification.
//   - hookpure: the methods of the observability hook types, and
//     everything they call, must not allocate, schedule kernel work or
//     write simulation state — the same §4b contract, transitively.
//
// The module is built hermetically with no third-party dependencies,
// so Run loads packages and their test variants itself with
// `go list -export -test` and the standard library's gc export-data
// importer instead of go/packages. It walks them in dependency order
// and keeps, as plain Go values, what each package's functions tell the
// packages that import them: their side effects (hookpure, poolsafety)
// and whether they dereference their receiver unguarded (nilsafe).
//
// Run the suite via `go run ./cmd/latsimvet ./...`.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static-analysis pass: Run is invoked once per
// loaded package with a fully type-checked Pass.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics.
	Name string
	// Doc is the analyzer's one-paragraph description.
	Doc string
	// Run reports diagnostics through the Pass. A non-nil error aborts
	// the whole run (reserved for internal failures, not findings).
	Run func(*Pass) error
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	diags *[]Diagnostic
	// effects holds the side effects of every function the package
	// declares, computed once and shared by every analyzer's pass.
	effects *effectsComputer
	// unguarded collects the package's methods that nilsafe finds
	// dereferencing their receiver before any nil guard.
	unguarded map[types.Object]bool
	// summaries is what the plain packages analyzed so far published.
	summaries map[string]*summary
}

// Diagnostic is one finding, positioned in the file set it was found in.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String formats the diagnostic in the canonical file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of e, or nil if unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if tv, ok := p.Info.Types[e]; ok {
		return tv.Type
	}
	if id, ok := e.(*ast.Ident); ok {
		if obj := p.Info.ObjectOf(id); obj != nil {
			return obj.Type()
		}
	}
	return nil
}

// ObjectOf returns the object an identifier denotes, or nil.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object { return p.Info.ObjectOf(id) }
