// latsimvet runs the repo's custom static-analysis suite (poolsafety,
// nilsafe, simdet, hookpure — see internal/analysis) over the simulator
// tree, test files included:
//
//	go run ./cmd/latsimvet ./...
//
// The default output is vet-style text; -github prints GitHub Actions
// problem annotations (workflow command lines) instead.
//
// Exit status is nonzero when any analyzer reports a finding.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"latsim/internal/analysis"
)

func main() {
	githubOut := flag.Bool("github", false, "emit GitHub Actions problem annotations")
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

	diags, err := analysis.Run("", analysis.All(), args...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "latsimvet: %v\n", err)
		os.Exit(1)
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
