package core

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// TestExpAllMatchesGolden checks the byte-identity invariant: every
// experiment "all" runs, rendered through the shared session and each
// followed by the blank line cmd/figures prints after it, must equal
// the committed testdata/figures_all.txt. A change that moves simulated
// results on purpose regenerates that file (EXPERIMENTS.md).
func TestExpAllMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("renders every experiment")
	}
	want, err := os.ReadFile("../../testdata/figures_all.txt")
	if err != nil {
		t.Fatal(err)
	}
	s := session(t)
	var got bytes.Buffer
	for _, id := range ExperimentIDs {
		if err := s.RunExperiment(&got, id, nil); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		got.WriteByte('\n')
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < min(len(gl), len(wl)); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("-exp all differs from testdata/figures_all.txt at line %d:\n got: %q\nwant: %q", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("-exp all has %d lines, testdata/figures_all.txt %d", len(gl), len(wl))
}
