// latsimvet runs the repo's custom static-analysis suite (poolsafety,
// nilsafe, simdet, partition, hookpure, schemaver — see
// internal/analysis) over the simulator tree, test files included:
//
//	go run ./cmd/latsimvet ./...
//
// The default output is vet-style text; -github prints GitHub Actions
// problem annotations (workflow command lines) instead.
// `-schemaver-update` refreshes the committed schema fingerprint golden.
//
// Exit status is nonzero when any analyzer reports a finding.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"latsim/internal/analysis"
)

func main() {
	githubOut := flag.Bool("github", false, "emit GitHub Actions problem annotations")
	schemaUpdate := flag.Bool("schemaver-update", false, "recompute schema fingerprints and rewrite the committed golden")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: latsimvet [flags] [packages]\n\nanalyzers:\n")
		for _, a := range analysis.All() {
			fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
		fmt.Fprintf(os.Stderr, "\nflags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	args := flag.Args()
	if len(args) == 0 {
		args = []string{"./..."}
	}

	if *schemaUpdate {
		if err := updateSchemaGolden(args); err != nil {
			fatal(err)
		}
		return
	}

	diags, err := analysis.Run("", analysis.All(), args...)
	if err != nil {
		fatal(err)
	}
	if *githubOut {
		emitGitHub(diags)
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "latsimvet: %v\n", err)
	os.Exit(1)
}

// updateSchemaGolden recomputes every schema anchor's fingerprint (a
// suite-shaped run, so facts flow exactly as in checking mode) and
// rewrites internal/analysis/schemaver_golden.json.
func updateSchemaGolden(patterns []string) error {
	capture := map[string]analysis.SchemaRecord{}
	if _, err := analysis.Run("", []*analysis.Analyzer{analysis.NewSchemaverCapture(capture)}, patterns...); err != nil {
		return err
	}
	if len(capture) == 0 {
		return fmt.Errorf("no schema anchors in %v; run over the full tree (./...)", patterns)
	}
	out, err := json.MarshalIndent(analysis.SchemaGolden{Anchors: capture}, "", "\t")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	dir, err := moduleDir()
	if err != nil {
		return err
	}
	path := filepath.Join(dir, filepath.FromSlash(analysis.SchemaverGoldenPath))
	if err := os.WriteFile(path, out, 0o666); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "latsimvet: wrote %s (%d anchors)\n", path, len(capture))
	return nil
}

// moduleDir locates the module root via the go command.
func moduleDir() (string, error) {
	cmd := exec.Command("go", "list", "-m", "-f", "{{.Dir}}")
	var out, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("go list -m: %v\n%s", err, stderr.Bytes())
	}
	return strings.TrimSpace(out.String()), nil
}

// emitGitHub prints GitHub Actions workflow commands: one `::error`
// annotation per diagnostic, surfaced inline on pull-request diffs.
func emitGitHub(diags []analysis.Diagnostic) {
	for _, d := range diags {
		file := d.Pos.Filename
		if wd, err := os.Getwd(); err == nil {
			if rel, err := filepath.Rel(wd, file); err == nil && !strings.HasPrefix(rel, "..") {
				file = filepath.ToSlash(rel)
			}
		}
		// Workflow-command escaping: %, CR and LF in the message.
		msg := strings.NewReplacer("%", "%25", "\r", "%0D", "\n", "%0A").Replace(d.Message)
		fmt.Printf("::error file=%s,line=%d,col=%d,title=latsimvet/%s::%s\n",
			file, d.Pos.Line, d.Pos.Column, d.Analyzer, msg)
	}
}
