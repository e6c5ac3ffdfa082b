// Command obsdiff compares observability reports and judges the
// movement: per-bucket breakdown deltas, latency-distribution shift,
// timeline divergence, counter drift and waterfall changes, each with a
// verdict. The judge is exact: a metric that did not move is identical,
// and any other is improved or regressed by its direction. Exit status 0
// means nothing regressed; 1 means at least one metric regressed (named
// on stdout); 2 means the comparison itself failed.
//
// Diff two saved reports (or two artifact directories, matched by
// report file name):
//
//	obsdiff base.report.json new.report.json
//	obsdiff baseline-artifacts/ fresh-artifacts/
//
// testdata/baselines holds the Compact()ed reports of the reduced
// validation matrix, run with observability on: bulk payloads (raw
// spans, per-processor timelines, per-link mesh counts) are stripped,
// the per-interval series and the waterfall are kept. This package's
// test regenerates the matrix and byte-compares every report with its
// baseline; it uses the judged diff only to explain a mismatch. After a
// change that moves them on purpose, from the repository root:
//
//	go test ./cmd/obsdiff                    # fails and prints what moved
//	go run ./cmd/obsdiff -update-baselines   # rewrites the baselines
//	go test ./cmd/obsdiff                    # passes
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"latsim/internal/core"
	"latsim/internal/obs"
	"latsim/internal/obs/diff"
)

// baselineDir is where the baseline reports live, relative to the
// repository root.
const baselineDir = "testdata/baselines"

// gateInterval and gateSpanRate fix the observability options baselines
// are recorded under; regeneration must match or every series length
// differs. The coarse interval keeps each baseline file small.
const (
	gateInterval = 16384
	gateSpanRate = 1.0 / 64
)

func main() {
	update := flag.Bool("update-baselines", false, "regenerate the reduced matrix and rewrite the baseline reports under "+baselineDir)
	jsonOut := flag.Bool("json", false, "emit the diff document(s) as JSON on stdout instead of text")
	flag.Parse()

	if *update {
		if err := updateBaselines(); err != nil {
			fatalf("%v", err)
		}
		return
	}
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: obsdiff [-json] <base.report.json|baseDir> <new.report.json|newDir>")
		fmt.Fprintln(os.Stderr, "       obsdiff -update-baselines")
		os.Exit(2)
	}
	runDiff(flag.Arg(0), flag.Arg(1), *jsonOut)
}

// runDiff diffs two report files, or two artifact directories pairwise.
func runDiff(base, cur string, jsonOut bool) {
	bi, err := os.Stat(base)
	if err != nil {
		fatalf("%v", err)
	}
	ci, err := os.Stat(cur)
	if err != nil {
		fatalf("%v", err)
	}
	if bi.IsDir() != ci.IsDir() {
		fatalf("%s and %s must both be report files or both be directories", base, cur)
	}
	var diffs []*diff.Diff
	if bi.IsDir() {
		diffs = diffDirs(base, cur)
	} else {
		diffs = []*diff.Diff{diffFiles(base, cur)}
	}
	finish(diffs, jsonOut)
}

func diffFiles(base, cur string) *diff.Diff {
	rb, err := obs.ReadReport(base)
	if err != nil {
		fatalf("%v", err)
	}
	rc, err := obs.ReadReport(cur)
	if err != nil {
		fatalf("%v", err)
	}
	d := diff.Compare(rb, rc)
	d.BaseLabel = base
	d.NewLabel = cur
	return d
}

// diffDirs pairs *.report.json files by name across two artifact
// directories. A report present on only one side is an error: a
// comparison that silently skips a vanished run judges nothing.
func diffDirs(base, cur string) []*diff.Diff {
	names := map[string]int{} // bit 0: in base, bit 1: in cur
	for side, dir := range []string{base, cur} {
		matches, err := filepath.Glob(filepath.Join(dir, "*.report.json"))
		if err != nil {
			fatalf("%v", err)
		}
		for _, m := range matches {
			names[filepath.Base(m)] |= 1 << side
		}
	}
	var ordered []string
	for name := range names {
		ordered = append(ordered, name)
	}
	sort.Strings(ordered)
	var diffs []*diff.Diff
	for _, name := range ordered {
		switch names[name] {
		case 1:
			fatalf("%s exists only in %s", name, base)
		case 2:
			fatalf("%s exists only in %s", name, cur)
		}
		diffs = append(diffs, diffFiles(filepath.Join(base, name), filepath.Join(cur, name)))
	}
	if len(diffs) == 0 {
		fatalf("no *.report.json files under %s and %s", base, cur)
	}
	return diffs
}

// gateEntry is one (application, configuration) cell of the baseline
// matrix and the file stem its baseline is stored under.
type gateEntry struct {
	app  string
	cfg  core.TwinEntry
	stem string
}

func gateMatrix() []gateEntry {
	var out []gateEntry
	for _, app := range core.AppNames {
		for _, e := range core.TwinReduced() {
			out = append(out, gateEntry{
				app:  app,
				cfg:  e,
				stem: obs.SanitizeName(app + "_" + e.Label),
			})
		}
	}
	return out
}

// regenerate runs the gate matrix with observability on and returns the
// compacted reports in matrix order.
func regenerate() ([]*obs.Report, error) {
	s := core.NewSession(core.ScaleSmall)
	s.Obs = &obs.Options{Interval: gateInterval, SpanRate: gateSpanRate}
	defer s.Close()
	entries := gateMatrix()
	reqs := make([]core.Request, len(entries))
	for i, e := range entries {
		reqs[i] = core.Request{App: e.app, Cfg: e.cfg.Cfg}
	}
	results, err := s.RunBatch(reqs)
	if err != nil {
		return nil, fmt.Errorf("regenerating matrix: %w", err)
	}
	reports := make([]*obs.Report, len(results))
	for i, res := range results {
		reports[i] = res.Obs.Compact()
	}
	return reports, nil
}

func updateBaselines() error {
	if err := os.MkdirAll(baselineDir, 0o755); err != nil {
		return err
	}
	entries := gateMatrix()
	reports, err := regenerate()
	if err != nil {
		return err
	}
	for i, e := range entries {
		b, err := obs.EncodeReport(reports[i])
		if err != nil {
			return err
		}
		path := filepath.Join(baselineDir, e.stem+".report.json")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", path)
	}
	fmt.Printf("%d baselines under %s\n", len(entries), baselineDir)
	return nil
}

// finish renders the diffs and exits 1 if anything regressed.
func finish(diffs []*diff.Diff, jsonOut bool) {
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", " ")
		if err := enc.Encode(diffs); err != nil {
			fatalf("%v", err)
		}
	} else {
		for _, d := range diffs {
			d.Render(os.Stdout)
		}
	}
	var failed []string
	for _, d := range diffs {
		if d != nil && d.Verdict == diff.Regressed {
			failed = append(failed, fmt.Sprintf("%s vs %s: %s",
				d.BaseLabel, d.NewLabel, strings.Join(d.Regressions, ", ")))
		}
	}
	if len(failed) > 0 {
		fmt.Fprintf(os.Stderr, "obsdiff: %d comparison(s) regressed:\n", len(failed))
		for _, f := range failed {
			fmt.Fprintf(os.Stderr, "  %s\n", f)
		}
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "obsdiff: "+format+"\n", args...)
	os.Exit(2)
}
