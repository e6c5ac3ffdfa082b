// Command obsdiff compares observability reports and judges the
// movement: per-bucket breakdown deltas, latency-distribution shift,
// timeline divergence, counter drift and waterfall changes, each with a
// verdict (identical / within-tolerance / improved / regressed) under
// configurable thresholds. Exit status 0 means nothing regressed; 1
// means at least one metric regressed (named on stdout); 2 means the
// comparison itself failed.
//
// Diff two saved reports (or two artifact directories, matched by
// report file name):
//
//	obsdiff base.report.json new.report.json
//	obsdiff baseline-artifacts/ fresh-artifacts/
//
// Gate mode regenerates the reduced validation matrix with
// observability on and diffs every run against the committed baselines
// (CI's perf-gate job):
//
//	obsdiff -gate
//	obsdiff -gate -html diff.html     # self-contained page for artifacts
//	obsdiff -update-baselines          # rewrite testdata/baselines
//
// Baselines are Compact()ed reports: bulk payloads (raw spans,
// per-processor timelines, per-link mesh counts) are stripped, every
// aggregate the diff engine judges is kept. The simulator is
// deterministic, so a clean gate means byte-equal reports, and any
// verdict past within-tolerance is a real behavior change.
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

// defaultBaselines is where the perf-gate baselines live in the repo.
const defaultBaselines = "testdata/baselines"

// gateInterval and gateSpanRate fix the observability options baselines
// are recorded under; regeneration must match or every series length
// differs. The coarse interval keeps each baseline file small.
const (
	gateInterval = 16384
	gateSpanRate = 1.0 / 64
)

func main() {
	gate := flag.Bool("gate", false, "regenerate the reduced matrix with obs on and diff against the committed baselines")
	update := flag.Bool("update-baselines", false, "regenerate the reduced matrix and rewrite the baseline reports")
	baselines := flag.String("baselines", defaultBaselines, "baseline directory for -gate / -update-baselines")
	jsonOut := flag.Bool("json", false, "emit the diff document(s) as JSON on stdout instead of text")
	htmlOut := flag.String("html", "", "also write a self-contained HTML diff page to this path")
	th := diff.Default()
	flag.Float64Var(&th.ElapsedPct, "elapsed-pct", th.ElapsedPct, "tolerated end-to-end cycle drift, percent")
	flag.Float64Var(&th.CounterPct, "counter-pct", th.CounterPct, "tolerated counter/bucket drift, percent")
	flag.Float64Var(&th.BucketPoints, "bucket-points", th.BucketPoints, "minimum bucket share shift (points) before its relative drift counts")
	flag.Float64Var(&th.QuantilePct, "quantile-pct", th.QuantilePct, "tolerated histogram statistic drift, percent")
	flag.Float64Var(&th.ShiftBuckets, "shift-buckets", th.ShiftBuckets, "tolerated latency-distribution shift, log2-bucket widths")
	flag.Float64Var(&th.DivergencePts, "divergence-pts", th.DivergencePts, "tolerated per-processor timeline divergence, points")
	strict := flag.Bool("strict", false, "zero all thresholds: any movement at all is a verdict")
	flag.Parse()

	if *strict {
		th = diff.Thresholds{}
	}
	switch {
	case *update:
		updateBaselines(*baselines)
	case *gate:
		runGate(*baselines, th, *jsonOut, *htmlOut)
	default:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: obsdiff [flags] <base.report.json|baseDir> <new.report.json|newDir>")
			fmt.Fprintln(os.Stderr, "       obsdiff -gate | -update-baselines")
			os.Exit(2)
		}
		runDiff(flag.Arg(0), flag.Arg(1), th, *jsonOut, *htmlOut)
	}
}

// runDiff diffs two report files, or two artifact directories pairwise.
func runDiff(base, cur string, th diff.Thresholds, jsonOut bool, htmlOut string) {
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
		diffs = diffDirs(base, cur, th)
	} else {
		diffs = []*diff.Diff{diffFiles(base, cur, th)}
	}
	finish(diffs, jsonOut, htmlOut)
}

func diffFiles(base, cur string, th diff.Thresholds) *diff.Diff {
	rb, err := obs.ReadReport(base)
	if err != nil {
		fatalf("%v", err)
	}
	rc, err := obs.ReadReport(cur)
	if err != nil {
		fatalf("%v", err)
	}
	d := diff.Compare(rb, rc, th)
	d.BaseLabel = base
	d.NewLabel = cur
	return d
}

// diffDirs pairs *.report.json files by name across two artifact
// directories. A report present on only one side is an error: a gate
// that silently skips a vanished run judges nothing.
func diffDirs(base, cur string, th diff.Thresholds) []*diff.Diff {
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
		diffs = append(diffs, diffFiles(filepath.Join(base, name), filepath.Join(cur, name), th))
	}
	if len(diffs) == 0 {
		fatalf("no *.report.json files under %s and %s", base, cur)
	}
	return diffs
}

// gateEntry is one (application, configuration) cell of the baseline
// matrix and the file stem its baseline is stored under.
type gateEntry struct {
	app   string
	label string
	cfg   core.TwinEntry
	stem  string
}

func gateMatrix() []gateEntry {
	var out []gateEntry
	for _, app := range core.AppNames {
		for _, e := range core.TwinReduced() {
			out = append(out, gateEntry{
				app:   app,
				label: e.Label,
				cfg:   e,
				stem:  obs.SanitizeName(app + "_" + e.Label),
			})
		}
	}
	return out
}

// regenerate runs the gate matrix with observability on and returns the
// compacted reports in matrix order.
func regenerate() []*obs.Report {
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
		fatalf("regenerating matrix: %v", err)
	}
	reports := make([]*obs.Report, len(results))
	for i, res := range results {
		reports[i] = res.Obs.Compact()
	}
	return reports
}

func updateBaselines(dir string) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatalf("%v", err)
	}
	entries := gateMatrix()
	reports := regenerate()
	for i, e := range entries {
		b, err := json.MarshalIndent(reports[i], "", " ")
		if err != nil {
			fatalf("encoding %s: %v", e.stem, err)
		}
		path := filepath.Join(dir, e.stem+".report.json")
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("wrote %s\n", path)
	}
	fmt.Printf("%d baselines under %s\n", len(entries), dir)
}

// runGate regenerates the matrix and diffs each run against its
// committed baseline.
func runGate(dir string, th diff.Thresholds, jsonOut bool, htmlOut string) {
	entries := gateMatrix()
	reports := regenerate()
	var diffs []*diff.Diff
	for i, e := range entries {
		path := filepath.Join(dir, e.stem+".report.json")
		base, err := obs.ReadReport(path)
		if err != nil {
			fatalf("%v (run obsdiff -update-baselines to regenerate the baseline matrix)", err)
		}
		d := diff.Compare(base, reports[i], th)
		d.BaseLabel = path
		d.NewLabel = "regenerated " + e.app + " " + e.label
		diffs = append(diffs, d)
	}
	finish(diffs, jsonOut, htmlOut)
}

// finish renders the diffs, writes the optional HTML page and exits 1
// if anything regressed.
func finish(diffs []*diff.Diff, jsonOut bool, htmlOut string) {
	if htmlOut != "" {
		f, err := os.Create(htmlOut)
		if err != nil {
			fatalf("%v", err)
		}
		if err := diff.WriteHTML(f, "obs diff", diffs); err != nil {
			fatalf("writing html: %v", err)
		}
		if err := f.Close(); err != nil {
			fatalf("%v", err)
		}
	}
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
