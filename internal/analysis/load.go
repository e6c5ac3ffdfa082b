package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, parsed and type-checked package ready for
// analysis.
type Package struct {
	Path  string
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	// Dep marks a package loaded only because a target imports it: it
	// is analyzed for its summaries, but its diagnostics are not
	// reported.
	Dep bool
	// ForTest names the package under test when this is a test variant
	// (Path "p [p.test]" or "p_test [p.test]"), and is empty otherwise.
	ForTest string
	// Imports lists the plain in-module packages this package imports
	// (paths into the loaded set), for dependency-order scheduling.
	Imports []string
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	Dir        string
	ImportPath string
	Name       string
	ForTest    string
	GoFiles    []string
	CgoFiles   []string
	Imports    []string
	ImportMap  map[string]string
	Export     string
	Standard   bool
	DepOnly    bool
	Module     *struct{ GoVersion string }
	Error      *struct{ Err string }
}

// Load resolves the package patterns with the go command, parses the
// matched packages — with their test variants, and every in-module
// package they depend on — from source, and type-checks them against
// the export data of their dependencies (`go list -export` compiles
// dependencies into the build cache, so loading works offline and needs
// no third-party loader).
//
// A package with _test.go files appears twice: as itself, and as the
// test variant "p [p.test]" that adds its in-package test files. An
// external test package appears as "p_test [p.test]". Packages the go
// command recompiles only to link another package's test binary are
// not loaded; the plain package stands for them.
//
// The result is in dependency order: every package appears after all of
// the plain packages it imports, so a driver walking the slice forward
// always has dependency summaries before it needs them. Packages loaded
// only as dependencies are marked Dep.
//
// dir is the directory patterns are resolved from ("" = current).
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"."}
	}
	args := append([]string{"list", "-e", "-export", "-deps", "-test", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("analysis: go list %v: %v\n%s", patterns, err, stderr.Bytes())
	}

	exports := map[string]string{} // import path -> export data file
	// Test binaries in which an external test or a recompiled dependency
	// imports "p [p.test]" rather than p.
	ownImporter := map[string]bool{}
	var loadable []*listPkg
	inSet := map[string]bool{}
	goVersion := ""
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("analysis: decoding go list output: %v", err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if p.ForTest != "" && basePkgPath(p.ImportPath) != p.ForTest {
			ownImporter[p.ForTest] = true
		}
		if p.Standard {
			continue
		}
		if p.Error != nil {
			if p.DepOnly {
				continue
			}
			return nil, fmt.Errorf("analysis: %s: %s", p.ImportPath, p.Error.Err)
		}
		if len(p.CgoFiles) > 0 {
			if p.DepOnly {
				continue
			}
			return nil, fmt.Errorf("analysis: %s uses cgo, which the loader does not support", p.ImportPath)
		}
		if p.Name == "" || len(p.GoFiles) == 0 {
			continue // empty directory matched by a wildcard
		}
		if p.ForTest == "" && p.Name == "main" && strings.HasSuffix(p.ImportPath, ".test") {
			continue // generated test main
		}
		if base := basePkgPath(p.ImportPath); p.ForTest != "" && base != p.ForTest && base != p.ForTest+"_test" {
			continue // recompiled only to link p.ForTest's test binary
		}
		q := p
		loadable = append(loadable, &q)
		inSet[p.ImportPath] = true
		if goVersion == "" && p.Module != nil && p.Module.GoVersion != "" {
			goVersion = "go" + p.Module.GoVersion
		}
	}
	sort.Slice(loadable, func(i, j int) bool { return loadable[i].ImportPath < loadable[j].ImportPath })

	fset := token.NewFileSet()
	// Importers are keyed by plain import path, because export data
	// names its dependencies that way. Inside a test binary that links
	// recompiled packages, a path must resolve to the package recompiled
	// for it, so such a binary gets its own importer; every other package
	// shares one. Each dependency loads once per importer.
	importers := map[string]types.Importer{}
	importerFor := func(forTest string) types.Importer {
		if !ownImporter[forTest] {
			forTest = ""
		}
		if imp := importers[forTest]; imp != nil {
			return imp
		}
		imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
			f, ok := exports[path+" ["+forTest+".test]"]
			if !ok {
				f, ok = exports[path]
			}
			if !ok {
				return nil, fmt.Errorf("analysis: no export data for %q", path)
			}
			return os.Open(f)
		})
		importers[forTest] = imp
		return imp
	}

	byPath := map[string]*Package{}
	var pkgs []*Package
	for _, t := range loadable {
		var files []*ast.File
		for _, name := range t.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(t.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, fmt.Errorf("analysis: %v", err)
			}
			files = append(files, f)
		}
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Instances:  map[*ast.Ident]types.Instance{},
		}
		conf := types.Config{
			Importer:  importMapper{imp: importerFor(t.ForTest), m: t.ImportMap},
			GoVersion: goVersion,
		}
		pkg, err := conf.Check(t.ImportPath, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("analysis: type-checking %s: %v", t.ImportPath, err)
		}
		var imports []string
		for _, ip := range t.Imports {
			if mapped, ok := t.ImportMap[ip]; ok {
				ip = mapped
			}
			if ip = basePkgPath(ip); inSet[ip] {
				imports = append(imports, ip)
			}
		}
		sort.Strings(imports)
		lp := &Package{
			Path:    t.ImportPath,
			Dir:     t.Dir,
			Fset:    fset,
			Files:   files,
			Pkg:     pkg,
			Info:    info,
			Dep:     t.DepOnly,
			ForTest: t.ForTest,
			Imports: imports,
		}
		byPath[t.ImportPath] = lp
		pkgs = append(pkgs, lp)
	}

	return topoSort(pkgs, byPath)
}

// topoSort orders packages so every package follows its in-set imports.
// Ties break by import path for determinism.
func topoSort(pkgs []*Package, byPath map[string]*Package) ([]*Package, error) {
	ordered := make([]*Package, 0, len(pkgs))
	state := map[string]int{} // 0 unvisited, 1 visiting, 2 done
	var visit func(p *Package) error
	visit = func(p *Package) error {
		switch state[p.Path] {
		case 1:
			return fmt.Errorf("analysis: import cycle through %s", p.Path)
		case 2:
			return nil
		}
		state[p.Path] = 1
		for _, ip := range p.Imports {
			if dep := byPath[ip]; dep != nil {
				if err := visit(dep); err != nil {
					return err
				}
			}
		}
		state[p.Path] = 2
		ordered = append(ordered, p)
		return nil
	}
	for _, p := range pkgs {
		if err := visit(p); err != nil {
			return nil, err
		}
	}
	return ordered, nil
}

// importMapper resolves source-level import paths through a package's
// ImportMap (vendoring, test variants) to the plain package path its
// importer is keyed by.
type importMapper struct {
	imp types.Importer
	m   map[string]string
}

func (im importMapper) Import(path string) (*types.Package, error) {
	if mapped, ok := im.m[path]; ok {
		path = mapped
	}
	return im.imp.Import(basePkgPath(path))
}

// basePkgPath strips the go command's test-variant suffix
// ("pkg [pkg.test]" -> "pkg") so package-keyed configuration and
// summaries apply to a package and its test variant alike.
func basePkgPath(p string) string {
	if i := strings.Index(p, " ["); i >= 0 {
		return p[:i]
	}
	return p
}
