package analysis

import (
	"fmt"
	"slices"
	"sort"
)

// Run loads the given package patterns with their test variants and
// applies every analyzer to every loaded package, dependencies first so
// each pass sees the facts of everything it imports. It returns the
// target packages' diagnostics sorted by position, each reported once
// although a test variant re-analyzes its package's non-test files.
func Run(dir string, analyzers []*Analyzer, patterns ...string) ([]Diagnostic, error) {
	pkgs, err := Load(dir, patterns...)
	if err != nil {
		return nil, err
	}
	return runLoaded(pkgs, analyzers)
}

// runLoaded walks already-loaded packages in their dependency order.
func runLoaded(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	// Only plain packages export facts: a test variant shares its
	// package's path, and letting it overwrite the plain facts would make
	// what dependents see depend on load order.
	facts := map[string]*pkgFacts{}
	var diags []Diagnostic
	for _, pkg := range pkgs {
		env := &factEnv{imported: facts, out: newPkgFacts()}
		ds, err := runPackage(pkg, analyzers, env)
		if err != nil {
			return nil, err
		}
		if pkg.ForTest == "" {
			facts[pkg.Path] = env.out
		}
		if !pkg.Dep {
			diags = append(diags, ds...)
		}
	}
	Sort(diags)
	return slices.Compact(diags), nil
}

func runPackage(pkg *Package, analyzers []*Analyzer, env *factEnv) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Pkg,
			Info:     pkg.Info,
			diags:    &diags,
			env:      env,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analysis: %s on %s: %v", a.Name, pkg.Path, err)
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
