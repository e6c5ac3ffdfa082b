package analysis

import (
	"path/filepath"
	"strings"
	"testing"
)

// runGolden checks one analyzer against one fixture package: every
// `// want` comment must be matched by a diagnostic and vice versa.
func runGolden(t *testing.T, a *Analyzer, pattern string) {
	t.Helper()
	problems, err := CheckExpectations("", []*Analyzer{a}, pattern)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error(p)
	}
}

func TestPoolsafetyGolden(t *testing.T) {
	runGolden(t, NewPoolsafety(), "./testdata/src/poolsafety/a")
}

func TestNilsafeGolden(t *testing.T) {
	runGolden(t, NewNilsafe(
		"latsim/internal/analysis/testdata/src/nilsafe/hooks.Recorder",
		"latsim/internal/analysis/testdata/src/nilsafe/hooks.Tracer",
	), "./testdata/src/nilsafe/hooks")
}

// TestSimdetGolden also pins that test files are analyzed: the
// fixture's sched_test.go carries a want of its own, which a driver that
// skipped test variants would leave unchecked rather than failing. Its
// external test uses a name only export_test.go declares, so it loads
// only if the test binary's imports resolve to "sched [sched.test]".
func TestSimdetGolden(t *testing.T) {
	a := NewSimdet("latsim/internal/analysis/testdata/src/simdet/sched")
	runGolden(t, a, "./testdata/src/simdet/sched")
	diags, err := Run("", []*Analyzer{a}, "./testdata/src/simdet/sched")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		if filepath.Base(d.Pos.Filename) == "sched_test.go" {
			return
		}
	}
	t.Errorf("no diagnostic in sched_test.go, got %v", diags)
}

// TestPartitionEmptyMarker pins the marker grammar: a suppression with
// no reason is itself a diagnostic and suppresses nothing. The rule is
// shared by every marker; the fixture exercises it on //hookpure:alloc.
// (Direct assertions, not want comments — the marker's own line cannot
// also carry an expectation comment.)
func TestPartitionEmptyMarker(t *testing.T) {
	diags, err := Run("", []*Analyzer{NewHookpure("latsim/internal/analysis/testdata/src/hookpure/empty.Recorder")},
		"./testdata/src/hookpure/empty")
	if err != nil {
		t.Fatal(err)
	}
	var gotEmpty, gotAlloc bool
	for _, d := range diags {
		if strings.Contains(d.Message, "//hookpure:alloc marker requires a reason") {
			gotEmpty = true
		}
		if strings.Contains(d.Message, "allocates on the hot path: append") {
			gotAlloc = true
		}
	}
	if !gotEmpty || !gotAlloc {
		t.Fatalf("want an empty-marker diagnostic and an unsuppressed allocation diagnostic, got %v", diags)
	}
}

// TestHookpureGolden also covers the facts round trip across a package
// boundary: helper's global write reaches the hooks package only
// through helper's exported FnEffects fact, so the matched want on
// Tally's call site fails if the export or the import breaks.
func TestHookpureGolden(t *testing.T) {
	runGolden(t, NewHookpure("latsim/internal/analysis/testdata/src/hookpure/hooks.Recorder"),
		"./testdata/src/hookpure/hooks")
}

// TestSchemaverRegression drives the full fingerprint workflow: capture
// a golden from variant a, verify a is clean against it, then verify
// variant b — the same version constant over a renamed serialized field
// — is caught, while its exempt-field change contributes nothing.
func TestSchemaverRegression(t *testing.T) {
	anchors := func(variant string) []SchemaAnchor {
		pkg := "latsim/internal/analysis/testdata/src/schemaver/" + variant
		return []SchemaAnchor{{
			Pkg:   pkg,
			Const: "SchemaVersion",
			Key:   "store.SchemaVersion",
			Roots: []string{pkg + ".Doc"},
		}}
	}
	capture := map[string]SchemaRecord{}
	diags, err := Run("", []*Analyzer{NewSchemaverConfig(anchors("a"), SchemaGolden{}, capture)},
		"./testdata/src/schemaver/a")
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Fatalf("capture run reported: %v", diags)
	}
	rec, ok := capture["store.SchemaVersion"]
	if !ok || rec.Version != 3 || rec.Fingerprint == "" {
		t.Fatalf("capture = %+v", capture)
	}
	golden := SchemaGolden{Anchors: capture}

	diags, err = Run("", []*Analyzer{NewSchemaverConfig(anchors("a"), golden, nil)},
		"./testdata/src/schemaver/a")
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Fatalf("unchanged shape must be clean against its own golden, got %v", diags)
	}

	runGolden(t, NewSchemaverConfig(anchors("b"), golden, nil), "./testdata/src/schemaver/b")
}

// TestSuiteCleanOnTree is the live gate: the production suite must
// report zero findings on the whole module (same check CI runs via
// cmd/latsimvet).
func TestSuiteCleanOnTree(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	diags, err := Run("", All(), "latsim/...")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// TestWantParsing pins the expectation-comment grammar.
func TestWantParsing(t *testing.T) {
	lit, rest, err := scanString("`a.b` \"c\\\"d\"")
	if err != nil || lit != "a.b" || strings.TrimSpace(rest) != "\"c\\\"d\"" {
		t.Fatalf("raw scan: %q %q %v", lit, rest, err)
	}
	lit, rest, err = scanString(strings.TrimSpace(rest))
	if err != nil || lit != `c"d` || rest != "" {
		t.Fatalf("quoted scan: %q %q %v", lit, rest, err)
	}
}
