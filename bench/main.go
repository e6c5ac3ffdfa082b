// Command bench measures the simulator's host time end to end and per
// layer over four workloads, and checks that the simulated outputs are
// correct. Run it from the repository root through bench/run.sh, which
// builds it first; README.md describes the workloads and metrics.
//
//	bash bench/run.sh -seed 1            all workloads; writes bench/out
//	bash bench/run.sh --workload lu-sc --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh -compare base.json change.json
//
// With -workload the command measures one workload for -seconds and
// prints, as its last line, one JSON object with the end-to-end metrics
// (-trace 0) or the per-layer metrics (-trace 1) that BENCHMARK.json
// declares.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"
)

// Fixed run parameters. Three set-ups give setup_s a median; three
// timed iterations are the fewest a short run may report; the traced
// pass of the full run collects at least five CPU-seconds of profile.
const (
	setups       = 3
	minTimed     = 3
	fullTraceCPU = 5 * time.Second
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "measure only this workload for -seconds (default: all, with the iteration counts in bench/workloads.json)")
	seed := fs.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 20, "with -workload, how long to measure")
	trace := fs.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer metrics of a traced pass")
	out := fs.String("out", "", "directory for results.json, trace.json and the CPU profiles (default bench/out)")
	compare := fs.Bool("compare", false, "compare two results.json files given as arguments")
	setupOnly := fs.Bool("setup-only", false, "internal: run one set-up of -workload and print its time")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	sp, err := loadSpec(root)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if *out == "" {
		*out = filepath.Join(root, "bench", "out")
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two results.json files")
			return 2
		}
		return compareFiles(sp, fs.Arg(0), fs.Arg(1), stdout, stderr)
	case *setupOnly:
		return childSetUp(sp, *name, *seed, stdout, stderr)
	case *name != "":
		return measureOne(sp, *name, *seed, *seconds, *trace, *out, stdout, stderr)
	}
	return measureAll(sp, *seed, *out, stdout, stderr)
}

// findRoot locates the repository root: the working directory, or its
// parent when the command runs from bench/.
func findRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
	}
	return "", errors.New("BENCHMARK.json not found; run from the repository root")
}

// metricSpec is one metric of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// workloadParams are a workload's fixed iteration counts for the full
// run and the digest of its outputs at seed 1.
type workloadParams struct {
	Warmup int    `json:"warmup"`
	Timed  int    `json:"timed"`
	Digest string `json:"digest_seed1"`
}

// spec joins BENCHMARK.json with bench/workloads.json.
type spec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
	params   map[string]workloadParams
}

func loadSpec(root string) (*spec, error) {
	var sp spec
	if err := readJSON(filepath.Join(root, "BENCHMARK.json"), &sp); err != nil {
		return nil, err
	}
	if err := readJSON(filepath.Join(root, "bench", "workloads.json"), &sp.params); err != nil {
		return nil, err
	}
	for _, w := range workloads {
		if p, ok := sp.params[w.name]; !ok || p.Warmup < 1 || p.Timed < 1 {
			return nil, fmt.Errorf("bench/workloads.json: workload %s needs warmup and timed >= 1", w.name)
		}
	}
	return &sp, nil
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// setupRun is one set-up's host seconds and the host's slowdown around
// it.
type setupRun struct {
	Secs float64 `json:"setup_s"`
	Slow float64 `json:"slowdown"`
}

// setUp runs w's warm-up iterations, which build its inputs from the
// seed, and returns their common digest (every later iteration must
// match it) and the time taken.
func setUp(w *workload, p workloadParams, seed int64) (ref string, su setupRun, err error) {
	slow := slowdown(w.parallel)
	start := time.Now()
	for i := 0; i < p.Warmup; i++ {
		s, err := iterate(w, seed, nil, i)
		if err != nil {
			return "", su, fmt.Errorf("%s warm-up: %w", w.name, err)
		}
		if i > 0 && s.digest != ref {
			return "", su, fmt.Errorf("%s warm-up %d digest %s differs from %s", w.name, i, s.digest, ref)
		}
		ref = s.digest
	}
	su.Secs = time.Since(start).Seconds()
	su.Slow = (slow + slowdown(w.parallel)) / 2
	return ref, su, nil
}

// childReport is what a -setup-only child prints.
type childReport struct {
	setupRun
	Digest string `json:"digest"`
}

func childSetUp(sp *spec, name string, seed int64, stdout, stderr io.Writer) int {
	w, err := workloadByName(name)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	ref, su, err := setUp(w, sp.params[name], seed)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	b, _ := json.Marshal(childReport{setupRun: su, Digest: ref}) // numbers and a string always encode
	fmt.Fprintln(stdout, string(b))
	return 0
}

// setUpAll measures setups set-ups of w: one in this process, the rest
// in fresh child processes, so each pays process-wide lazy
// initialisation once. Every set-up must produce the same digest.
func setUpAll(sp *spec, w *workload, seed int64, stderr io.Writer) (ref string, runs []setupRun, err error) {
	ref, su, err := setUp(w, sp.params[w.name], seed)
	if err != nil {
		return "", nil, err
	}
	runs = append(runs, su)
	exe, err := os.Executable()
	if err != nil {
		return "", nil, err
	}
	for i := 1; i < setups; i++ {
		cmd := exec.Command(exe, "-setup-only", "-workload", w.name, "-seed", strconv.FormatInt(seed, 10))
		cmd.Stderr = stderr
		b, err := cmd.Output()
		if err != nil {
			return "", nil, fmt.Errorf("%s set-up %d: %w", w.name, i+1, err)
		}
		var rep childReport
		lines := strings.Split(strings.TrimSpace(string(b)), "\n")
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
			return "", nil, fmt.Errorf("%s set-up %d: %w", w.name, i+1, err)
		}
		if rep.Digest != ref {
			return "", nil, fmt.Errorf("%s set-up %d digest %s differs from %s", w.name, i+1, rep.Digest, ref)
		}
		runs = append(runs, rep.setupRun)
	}
	return ref, runs, nil
}

// checkDigest compares a reference digest with the one stored for seed
// 1, which a workload that ignores the seed must match at every seed.
func checkDigest(sp *spec, w *workload, seed int64, ref string, stderr io.Writer) bool {
	want := sp.params[w.name].Digest
	if w.inputSeed(seed) != w.inputSeed(1) || ref == want {
		return true
	}
	fmt.Fprintf(stderr, "bench: %s at seed %d: outputs digest %s, bench/workloads.json has %s for seed 1\n", w.name, seed, ref, want)
	return false
}

// timedRun is the outcome of one workload's timed or traced iterations.
type timedRun struct {
	samples           []*sample
	attempted, failed int
}

// iterateChecked runs one iteration and records it; an error or a
// digest other than ref fails it. Untimed iterations are bracketed by
// the calibration; traced ones are not, so it stays out of the profile.
func (r *timedRun) iterateChecked(w *workload, seed int64, tr *tracer, ref string, stderr io.Writer) {
	r.attempted++
	var slow float64
	if tr == nil {
		slow = slowdown(w.parallel)
	}
	s, err := iterate(w, seed, tr, r.attempted)
	if err == nil && s.digest != ref {
		err = fmt.Errorf("outputs digest %s differs from the warm-up's %s", s.digest, ref)
	}
	if err != nil {
		r.failed++
		fmt.Fprintf(stderr, "bench: %s iteration %d: %v\n", w.name, r.attempted, err)
		return
	}
	if tr == nil {
		s.slow = (slow + slowdown(w.parallel)) / 2
	}
	r.samples = append(r.samples, s)
}

// forDuration iterates until about `seconds` have passed: it starts
// another iteration only while the mean so far still fits, and always
// runs at least min.
func forDuration(min int, seconds float64, step func()) {
	start := time.Now()
	for n := 0; ; n++ {
		el := time.Since(start).Seconds()
		if n >= min && (n == 0 || el+el/float64(n) > seconds) {
			return
		}
		step()
	}
}

// traced is the outcome of a workload's traced pass.
type traced struct {
	timedRun
	spans   []span
	profile []byte
	shares  map[string]float64
}

// tracedPass runs w with spans, op counters and a CPU profile on, for
// as long as loop keeps calling step.
func tracedPass(w *workload, seed int64, ref string, stderr io.Writer, loop func(step func())) (*traced, error) {
	tp := &traced{}
	tr := newTracer()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	loop(func() { tp.iterateChecked(w, seed, tr, ref, stderr) })
	pprof.StopCPUProfile()
	stacks, err := parseProfile(prof.Bytes())
	if err != nil {
		return nil, err
	}
	tp.spans, tp.profile, tp.shares = tr.spans, prof.Bytes(), cpuShares(stacks)
	return tp, nil
}

// report is the last output line of a -workload run.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// measureOne measures one workload for the given seconds and prints its
// report: the end-to-end metrics, or with trace 1 the per-layer ones.
func measureOne(sp *spec, name string, seed int64, seconds float64, trace int, out string, stdout, stderr io.Writer) int {
	w, err := workloadByName(name)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(stderr, "bench: -trace must be 0 or 1")
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	rep := report{Metrics: map[string]metricValue{}}
	var values map[string]float64
	var list []metricSpec
	if trace == 0 {
		ref, sus, err := setUpAll(sp, w, seed, stderr)
		if err != nil {
			return fail(err)
		}
		rep.Correct = checkDigest(sp, w, seed, ref, stderr)
		var r timedRun
		forDuration(minTimed, seconds, func() { r.iterateChecked(w, seed, nil, ref, stderr) })
		rep.Attempted, rep.Failed = r.attempted, r.failed
		values = medians(endToEnd(&r, sus))
		list = sp.EndToEnd
	} else {
		ref, _, err := setUp(w, sp.params[name], seed)
		if err != nil {
			return fail(err)
		}
		rep.Correct = checkDigest(sp, w, seed, ref, stderr)
		// A third of the time runs untraced: the reference for the
		// tracing overhead and for handoff.est_share.
		var untraced timedRun
		forDuration(1, seconds/3, func() { untraced.iterateChecked(w, seed, nil, ref, stderr) })
		tp, err := tracedPass(w, seed, ref, stderr, func(step func()) {
			forDuration(1, seconds*2/3, step)
		})
		if err != nil {
			return fail(err)
		}
		rep.Attempted = untraced.attempted + tp.attempted
		rep.Failed = untraced.failed + tp.failed
		values = layerMetrics(w, tp, endToEnd(&untraced, nil)["host_wall_s"].Median, micro())
		list = sp.PerLayer
		if err := writeArtifacts(out, map[string]*traced{name: tp}, []string{name}); err != nil {
			return fail(err)
		}
		printLayer(stdout, w.name+" ", withUnits(sp, values))
	}
	for _, m := range list {
		v, found := values[m.Name]
		if !found {
			return fail(fmt.Errorf("metric %s is declared in BENCHMARK.json but not measured", m.Name))
		}
		rep.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	rep.Correct = rep.Correct && rep.Failed == 0 && rep.Attempted > 0
	b, err := json.Marshal(rep)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintln(stdout, string(b))
	if !rep.Correct {
		return 1
	}
	return 0
}

// measureAll runs every workload: set-ups, then the timed iterations
// round-robin (iteration i of every workload before iteration i+1 of
// any, so slow drift of the host hits every workload alike), then a
// traced pass per workload and the microbenchmarks. It writes
// results.json, trace.json and the profiles.
func measureAll(sp *spec, seed int64, out string, stdout, stderr io.Writer) int {
	type state struct {
		w   *workload
		ref string
		sus []setupRun
		ok  bool
		timedRun
	}
	var states []*state
	for _, w := range workloads {
		ref, sus, err := setUpAll(sp, w, seed, stderr)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		states = append(states, &state{w: w, ref: ref, sus: sus, ok: checkDigest(sp, w, seed, ref, stderr)})
	}
	for i := 0; ; i++ {
		ran := false
		for _, st := range states {
			if i < sp.params[st.w.name].Timed {
				st.iterateChecked(st.w, seed, nil, st.ref, stderr)
				ran = true
			}
		}
		if !ran {
			break
		}
	}
	mic := micro()
	res := results{Seed: seed, GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), Micro: mic}
	tps := map[string]*traced{}
	var order []string
	failed := false
	for _, st := range states {
		cpu0 := cpuTime()
		tp, err := tracedPass(st.w, seed, st.ref, stderr, func(step func()) {
			for n := 0; n == 0 || cpuTime()-cpu0 < fullTraceCPU; n++ {
				step()
			}
		})
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		tps[st.w.name] = tp
		order = append(order, st.w.name)
		e2e := endToEnd(&st.timedRun, st.sus)
		res.Workloads = append(res.Workloads, workloadResult{
			Name: st.w.name, Digest: st.ref, Attempted: st.attempted, Failed: st.failed,
			EndToEnd: e2e,
			PerLayer: withUnits(sp, layerMetrics(st.w, tp, e2e["host_wall_s"].Median, mic)),
		})
		failed = failed || !st.ok || st.failed > 0 || tp.failed > 0
	}
	printResults(stdout, sp, &res)
	if err := writeArtifacts(out, tps, order); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	b, err := json.MarshalIndent(res, "", "  ")
	if err == nil {
		err = os.WriteFile(filepath.Join(out, "results.json"), append(b, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if failed {
		return 1
	}
	return 0
}

// writeArtifacts writes trace.json and one CPU profile per workload.
func writeArtifacts(out string, tps map[string]*traced, order []string) error {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	spans := map[string][]span{}
	for _, name := range order {
		spans[name] = tps[name].spans
		if err := os.WriteFile(filepath.Join(out, name+".pprof"), tps[name].profile, 0o644); err != nil {
			return err
		}
	}
	return writeChromeTrace(filepath.Join(out, "trace.json"), spans, order)
}
