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
	matchGolden(t, "-exp all", got.Bytes(), "testdata/figures_all.txt", want)
}

// matchGolden fails t unless got, the output of what, equals want, the
// committed file name, naming the first line that differs.
func matchGolden(t *testing.T, what string, got []byte, name string, want []byte) {
	t.Helper()
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < min(len(gl), len(wl)); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s differs from %s at line %d:\n got: %q\nwant: %q", what, name, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s has %d lines, %s %d", what, len(gl), name, len(wl))
}
