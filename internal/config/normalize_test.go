package config

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"latsim/internal/dirset"
)

func TestOverlayDefaults(t *testing.T) {
	// Empty and absent documents both return the base untouched.
	for _, raw := range [][]byte{nil, []byte(""), []byte("{}")} {
		c, err := Overlay(Default(), raw)
		if err != nil {
			t.Fatalf("Overlay(%q): %v", raw, err)
		}
		if c != Default() {
			t.Fatalf("Overlay(%q) = %+v, want Default", raw, c)
		}
	}
}

func TestOverlayPartial(t *testing.T) {
	c, err := Overlay(Default(), []byte(`{"Procs": 4, "Contexts": 2}`))
	if err != nil {
		t.Fatal(err)
	}
	if c.Procs != 4 || c.Contexts != 2 {
		t.Fatalf("overlaid fields: Procs=%d Contexts=%d", c.Procs, c.Contexts)
	}
	// Everything else keeps the default.
	want := Default()
	want.Procs, want.Contexts = 4, 2
	if c != want {
		t.Fatalf("Overlay disturbed unlisted fields: %+v", c)
	}
}

// An explicit zero is a meaningful setting (a free context switch), not
// an omission — it must survive the overlay.
func TestOverlayExplicitZero(t *testing.T) {
	c, err := Overlay(Default(), []byte(`{"SwitchPenalty": 0}`))
	if err != nil {
		t.Fatal(err)
	}
	if c.SwitchPenalty != 0 {
		t.Fatalf("SwitchPenalty = %d, want explicit 0", c.SwitchPenalty)
	}
}

func TestOverlayRejectsUnknownField(t *testing.T) {
	if _, err := Overlay(Default(), []byte(`{"Procss": 4}`)); err == nil {
		t.Fatal("typo field accepted silently")
	}
}

func TestOverlayRejectsTrailingData(t *testing.T) {
	if _, err := Overlay(Default(), []byte(`{"Procs": 4} {"Procs": 8}`)); err == nil {
		t.Fatal("trailing object accepted")
	}
}

func TestOverlayValidates(t *testing.T) {
	if _, err := Overlay(Default(), []byte(`{"Procs": 0}`)); err == nil {
		t.Fatal("invalid configuration accepted")
	}
}

func TestOverlayEnumNames(t *testing.T) {
	c, err := Overlay(Default(), []byte(`{"Model": "RC", "DirOrg": "limited-pointer"}`))
	if err != nil {
		t.Fatal(err)
	}
	if c.Model != RC || c.DirOrg != dirset.LimitedPtr {
		t.Fatalf("Model=%v DirOrg=%v, want RC/limited-pointer", c.Model, c.DirOrg)
	}
	// Integer encodings (what Marshal emits) still decode.
	c, err = Overlay(Default(), []byte(`{"Model": 3, "DirOrg": 2}`))
	if err != nil {
		t.Fatal(err)
	}
	if c.Model != RC || c.DirOrg != dirset.CoarseVector {
		t.Fatalf("integer enums: Model=%v DirOrg=%v", c.Model, c.DirOrg)
	}
	for _, raw := range []string{`{"Model": "XC"}`, `{"Model": 9}`, `{"DirOrg": "sparse"}`, `{"DirOrg": 7}`} {
		if _, err := Overlay(Default(), []byte(raw)); err == nil {
			t.Fatalf("bad enum %s accepted", raw)
		}
	}
}

func TestParseConsistency(t *testing.T) {
	for s, want := range map[string]Consistency{"SC": SC, "pc": PC, "Wc": WC, "rc": RC} {
		got, err := ParseConsistency(s)
		if err != nil || got != want {
			t.Fatalf("ParseConsistency(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseConsistency("TSO"); err == nil || !strings.Contains(err.Error(), "TSO") {
		t.Fatalf("ParseConsistency(TSO) err = %v", err)
	}
}

// Overlaying a spelled-out default and omitting it must produce
// identical configurations — the canonicalization cross-client job
// dedup depends on.
func TestOverlayCanonical(t *testing.T) {
	spelled, err := Overlay(Default(), []byte(`{"Procs": 16, "Model": "SC"}`))
	if err != nil {
		t.Fatal(err)
	}
	omitted, err := Overlay(Default(), []byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	if spelled != omitted {
		t.Fatalf("spelled defaults != omitted defaults:\n%+v\n%+v", spelled, omitted)
	}
}

// FuzzOverlay feeds Overlay the untrusted documents a sweep-service
// client can send. No input may panic; an accepted configuration must
// re-marshal and re-overlay to an identical one (the canonical-hash
// property cross-client dedup relies on) and carry no negative latency.
func FuzzOverlay(f *testing.F) {
	for _, seed := range []string{
		"", "{}", `{"Procs": 4, "Contexts": 2}`, `{"SwitchPenalty": 0}`,
		`{"Procss": 4}`, `{"Procs": 4} {"Procs": 8}`, `{"Procs": 0}`,
		`{"Model": "RC", "DirOrg": "limited-pointer"}`, `{"Model": 3, "DirOrg": 2}`,
		`{"Model": "XC"}`, `{"Model": 9}`, `{"DirOrg": "sparse"}`, `{"DirOrg": 7}`,
		`{"Procs": 16, "Model": "SC"}`, `{"Lat":{"Wire":-1}}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		c, err := Overlay(Default(), raw)
		if err != nil {
			return
		}
		b, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		again, err := Overlay(Default(), b)
		if err != nil {
			t.Fatalf("re-marshaled config rejected: %v\n%s", err, b)
		}
		if !reflect.DeepEqual(again, c) {
			t.Fatalf("round trip changed the config:\n%+v\n%+v", c, again)
		}
		lat := reflect.ValueOf(&c.Lat).Elem()
		for i := 0; i < lat.NumField(); i++ {
			if lat.Field(i).Int() < 0 {
				t.Fatalf("accepted negative Lat.%s", lat.Type().Field(i).Name)
			}
		}
	})
}
