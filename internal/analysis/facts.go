package analysis

import (
	"encoding/json"
	"fmt"
	"go/types"
	"reflect"
)

// A Fact is a typed, serializable piece of analysis knowledge attached
// to a package-level function, method, variable or type. Facts are the
// interprocedural backbone of the suite: an analyzer exports facts while
// analyzing a package, the driver keeps them in memory, and every
// dependent package's pass imports them — mirroring
// golang.org/x/tools/go/analysis facts. They are held JSON-encoded, so
// each import decodes a private copy no pass can alias or mutate.
//
// Implementations must be pointer-to-struct types with exported,
// JSON-round-trippable fields, registered via Analyzer.FactTypes.
type Fact interface {
	// AFact is a marker method; it has no behaviour.
	AFact()
}

// factKey names an object fact's target within its package: "Name" for
// package-level functions, variables and types, and "Type.Method" for
// methods (pointer and value receivers share the key space; Go forbids
// both declaring the same name).
func factKey(obj types.Object) (string, bool) {
	if obj == nil || obj.Pkg() == nil {
		return "", false
	}
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			named, ok := t.(*types.Named)
			if !ok {
				return "", false // method on an unnamed type (interface literal)
			}
			return named.Obj().Name() + "." + fn.Name(), true
		}
	}
	if obj.Parent() != nil && obj.Parent() != obj.Pkg().Scope() {
		return "", false // local object: facts attach to package-level API only
	}
	return obj.Name(), true
}

// factType returns the registered name of a fact's dynamic type.
func factType(f Fact) string {
	t := reflect.TypeOf(f)
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	return t.Name()
}

// pkgFacts holds every fact one package exports, keyed by analyzer then
// object key. Values stay as raw JSON until an importer asks for them
// with a concrete type.
type pkgFacts struct {
	// Analyzers maps analyzer name -> object key -> encoded fact.
	Analyzers map[string]map[string]json.RawMessage `json:"analyzers,omitempty"`
}

func newPkgFacts() *pkgFacts {
	return &pkgFacts{Analyzers: map[string]map[string]json.RawMessage{}}
}

func (pf *pkgFacts) set(analyzer, key string, f Fact) error {
	enc, err := json.Marshal(f)
	if err != nil {
		return fmt.Errorf("analysis: encoding %s fact %s: %v", analyzer, factType(f), err)
	}
	m := pf.Analyzers[analyzer]
	if m == nil {
		m = map[string]json.RawMessage{}
		pf.Analyzers[analyzer] = m
	}
	m[key] = enc
	return nil
}

func (pf *pkgFacts) get(analyzer, key string, into Fact) bool {
	if pf == nil {
		return false
	}
	raw, ok := pf.Analyzers[analyzer][key]
	if !ok {
		return false
	}
	return json.Unmarshal(raw, into) == nil
}

// factEnv is the driver-side view of all facts available to one pass:
// the facts imported from dependency packages plus the facts the current
// package is exporting.
type factEnv struct {
	imported map[string]*pkgFacts // package path -> facts
	out      *pkgFacts            // facts exported by the current package
}

// ExportObjectFact attaches a fact to a package-level object of the
// package under analysis. Facts on local objects or objects of other
// packages are silently dropped (mirroring the x/tools contract that
// facts flow strictly downstream).
func (p *Pass) ExportObjectFact(obj types.Object, f Fact) {
	if obj == nil || obj.Pkg() != p.Pkg {
		return
	}
	key, ok := factKey(obj)
	if !ok {
		return
	}
	if err := p.env.out.set(p.Analyzer.Name, key, f); err != nil {
		panic(err) // fact types are plain structs; encoding cannot fail
	}
}

// ImportObjectFact copies the fact of the given type attached to obj
// into *f, reporting whether one was found. The object may belong to the
// package under analysis (facts exported earlier in this pass) or to any
// dependency whose facts the driver loaded.
func (p *Pass) ImportObjectFact(obj types.Object, f Fact) bool {
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	key, ok := factKey(obj)
	if !ok {
		return false
	}
	if obj.Pkg() == p.Pkg {
		return p.env.out.get(p.Analyzer.Name, key, f)
	}
	return p.env.imported[basePkgPath(obj.Pkg().Path())].get(p.Analyzer.Name, key, f)
}
