package analysis

import (
	"fmt"
	"go/types"
	"slices"
	"sort"
)

// Run loads the given package patterns with their test variants and
// applies every analyzer to every loaded package, dependencies first so
// each pass sees the summaries of everything it imports. It returns the
// target packages' diagnostics sorted by position, each reported once
// although a test variant re-analyzes its package's non-test files.
func Run(dir string, analyzers []*Analyzer, patterns ...string) ([]Diagnostic, error) {
	pkgs, err := Load(dir, patterns...)
	if err != nil {
		return nil, err
	}
	return runLoaded(pkgs, analyzers)
}

// summary is what one function of a plain package tells the packages
// that import it.
type summary struct {
	eff       *effects // its side effects (hookpure, poolsafety)
	unguarded bool     // it dereferences its receiver before any nil guard (nilsafe)
}

// summaryKey names a package-level function or method across packages:
// "pkgpath.Name", or "pkgpath.Type.Method" for a method (pointer and
// value receivers share the key space; Go forbids both declaring the
// same name). A test variant's objects take their package's path. It
// is "" for functions no package can publish (universe methods, methods
// of interface literals).
func summaryKey(fn *types.Func) string {
	if fn.Pkg() == nil {
		return ""
	}
	name := fn.Name()
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		named, ok := t.(*types.Named)
		if !ok {
			return ""
		}
		name = named.Obj().Name() + "." + name
	}
	return basePkgPath(fn.Pkg().Path()) + "." + name
}

// imported returns the summary a plain package published for the
// function or method fn, or nil if none did.
func (p *Pass) imported(fn *types.Func) *summary { return p.summaries[summaryKey(fn)] }

// runLoaded walks already-loaded packages in their dependency order.
func runLoaded(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	sums := map[string]*summary{}
	var diags []Diagnostic
	for _, pkg := range pkgs {
		ds, err := runPackage(pkg, analyzers, sums)
		if err != nil {
			return nil, err
		}
		if !pkg.Dep {
			diags = append(diags, ds...)
		}
	}
	Sort(diags)
	return slices.Compact(diags), nil
}

// runPackage applies every analyzer to one package, then publishes the
// package's function summaries into sums. Only plain packages publish:
// a test variant shares its package's path, and letting it overwrite
// the plain summaries would make what dependents see depend on load
// order.
func runPackage(pkg *Package, analyzers []*Analyzer, sums map[string]*summary) ([]Diagnostic, error) {
	var diags []Diagnostic
	base := Pass{
		Fset:      pkg.Fset,
		Files:     pkg.Files,
		Pkg:       pkg.Pkg,
		Info:      pkg.Info,
		diags:     &diags,
		unguarded: map[types.Object]bool{},
		summaries: sums,
	}
	base.effects = newEffectsComputer(&base, DefaultModelPackages, markersByFile(pkg.Fset, pkg.Files, AllocMarker))
	for _, a := range analyzers {
		pass := base
		pass.Analyzer = a
		if err := a.Run(&pass); err != nil {
			return nil, fmt.Errorf("analysis: %s on %s: %v", a.Name, pkg.Path, err)
		}
	}
	if pkg.ForTest == "" {
		for _, fn := range base.effects.funcs {
			sums[summaryKey(fn)] = &summary{eff: base.effects.of(fn), unguarded: base.unguarded[fn]}
		}
	}
	return diags, nil
}

// Sort orders diagnostics by file, line, column, analyzer name, then
// message, so identical diagnostics end up adjacent.
func Sort(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}
