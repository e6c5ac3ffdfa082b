package runner

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"latsim/internal/machine"
	"latsim/internal/obs"
)

// schemaRecords pins each cache-format version constant to the
// fingerprint of the serialized shapes it covers. The result cache keys
// entries on SchemaVersion and obs reports carry ReportSchema, so a
// shape change without a bump would decode stale documents into the new
// shape. After a bump, record the new version and the fingerprint the
// failing test prints.
var schemaRecords = []struct {
	name        string
	version     int // the constant as compiled
	recorded    int // the version the fingerprint was recorded at
	fingerprint string
	roots       []reflect.Type
}{
	{"runner.SchemaVersion", SchemaVersion, 10, "34f17c3a4912152b",
		[]reflect.Type{reflect.TypeFor[Job](), reflect.TypeFor[machine.Result]()}},
	{"obs.ReportSchema", obs.ReportSchema, 5, "fc5e3f00b7088b4e",
		[]reflect.Type{reflect.TypeFor[obs.Report]()}},
}

// schemaFingerprint hashes the exported fields of every in-module named
// struct reachable from roots. Each struct renders as
// "pkg.Type{\n\tName Type `tag`\n}\n", fields in declaration order and
// structs sorted by name; the hash is the first 16 hex digits of the
// text's SHA-256. A named struct's unexported fields never serialize, so
// they neither count nor are followed; every field of an anonymous struct
// is followed.
func schemaFingerprint(roots ...reflect.Type) string {
	seen := map[reflect.Type]bool{}
	var structs []reflect.Type
	var walk func(t reflect.Type)
	walk = func(t reflect.Type) {
		if t.Name() != "" {
			if !strings.HasPrefix(t.PkgPath(), "latsim/") || seen[t] {
				return
			}
			seen[t] = true
			if t.Kind() == reflect.Struct {
				structs = append(structs, t)
				for i := 0; i < t.NumField(); i++ {
					if f := t.Field(i); f.IsExported() {
						walk(f.Type)
					}
				}
				return
			}
		}
		switch t.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Array:
			walk(t.Elem())
		case reflect.Map:
			walk(t.Key())
			walk(t.Elem())
		case reflect.Struct:
			for i := 0; i < t.NumField(); i++ {
				walk(t.Field(i).Type)
			}
		}
	}
	for _, r := range roots {
		walk(r)
	}
	sort.Slice(structs, func(i, j int) bool { return structs[i].String() < structs[j].String() })
	var b strings.Builder
	for _, t := range structs {
		fmt.Fprintf(&b, "%s{\n", t)
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() {
				continue
			}
			tag := ""
			if f.Tag != "" {
				tag = "`" + string(f.Tag) + "`"
			}
			fmt.Fprintf(&b, "\t%s %s %s\n", f.Name, f.Type, tag)
		}
		b.WriteString("}\n")
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])[:16]
}

// schemaVerdict compares a version constant and the current fingerprint
// with the recorded pair, and returns "" when they agree.
func schemaVerdict(name string, version, recorded int, fp, recordedFP string) string {
	switch {
	case fp != recordedFP && version == recorded:
		return fmt.Sprintf("%s: the serialized shape changed (fingerprint %s, recorded %s) without a version bump; "+
			"stale cached documents would decode against the new shape: bump it, then record the version and %s",
			name, fp, recordedFP, fp)
	case fp != recordedFP:
		return fmt.Sprintf("%s: bumped to %d; record version %d with fingerprint %s", name, version, version, fp)
	case version != recorded:
		return fmt.Sprintf("%s: bumped to %d but the serialized shape still matches recorded version %d; revert the bump",
			name, version, recorded)
	}
	return ""
}

func TestSchemaVersionsCoverShapes(t *testing.T) {
	for _, r := range schemaRecords {
		if msg := schemaVerdict(r.name, r.version, r.recorded, schemaFingerprint(r.roots...), r.fingerprint); msg != "" {
			t.Error(msg)
		}
	}
}

// TestSchemaVerdicts pins the three disagreements with a recorded pair,
// each with the fingerprint to record where there is a new one.
func TestSchemaVerdicts(t *testing.T) {
	for _, c := range []struct {
		version int
		fp      string
		want    string
	}{
		{8, "aaaa", ""},
		{8, "bbbb", "without a version bump; stale cached documents would decode against the new shape: bump it, then record the version and bbbb"},
		{9, "bbbb", "bumped to 9; record version 9 with fingerprint bbbb"},
		{9, "aaaa", "bumped to 9 but the serialized shape still matches recorded version 8; revert the bump"},
	} {
		got := schemaVerdict("x.V", c.version, 8, c.fp, "aaaa")
		if (c.want == "") != (got == "") || !strings.HasSuffix(got, c.want) {
			t.Errorf("version %d, fingerprint %s: got %q, want one ending %q", c.version, c.fp, got, c.want)
		}
	}
}
