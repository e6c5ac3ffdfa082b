// Command obs re-renders a saved observability report without
// re-simulating: it prints the report's summary and re-emits its
// Perfetto trace next to it.
//
//	obs -from obs/MP3D_RC-4ctx.report.json
//
// Reports come from a run with the recorder on, e.g.
// `latsim -app MP3D -model RC -contexts 4 -obs` or `figures -obs`.
// The trace artifact loads at ui.perfetto.dev (or chrome://tracing): one
// track per processor showing the execution-time bucket each cycle is
// charged to, plus counter tracks for write-buffer depth, context
// switches, directory traffic, kernel events and mesh hops, and the
// sampled transaction spans with flow arrows when the run traced them.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"latsim/internal/obs"
)

func main() {
	from := flag.String("from", "", "saved .report.json to re-render")
	flag.Parse()
	if *from == "" {
		fmt.Fprintln(os.Stderr, "obs: need -from <report.json> (record one with latsim -obs)")
		os.Exit(2)
	}
	rerender(*from)
}

// rerender prints the summary of a saved report and re-emits its Chrome
// trace next to it, without re-running the simulation.
func rerender(path string) {
	rep, err := obs.ReadReport(path)
	if err != nil {
		fatalf("%v", err)
	}
	rep.Summary(os.Stdout)
	trPath := strings.TrimSuffix(path, ".report.json")
	if trPath == path {
		trPath = strings.TrimSuffix(path, filepath.Ext(path))
	}
	trPath += ".trace.json"
	f, err := os.Create(trPath)
	if err != nil {
		fatalf("%v", err)
	}
	defer f.Close()
	if err := rep.WriteChromeTrace(f); err != nil {
		fatalf("writing trace: %v", err)
	}
	fmt.Printf("trace:  %s (open at ui.perfetto.dev)\n", trPath)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "obs: "+format+"\n", args...)
	os.Exit(1)
}
