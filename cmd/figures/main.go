// Command figures regenerates every table and figure from the paper's
// evaluation section, plus the extra ablations listed in DESIGN.md.
//
// Usage:
//
//	figures [-scale small|paper] [-exp id[,id...]] [-jobs N]
//	        [-cache-dir DIR] [-timeout D] [-obs] [-obs-dir DIR] [-check]
//	        [-twin] [-json] [-bars] [-v] [-listen ADDR]
//
// -exp takes one or more comma-separated experiment ids (or "all").
// Three are opt-in and not part of "all": dirscale (directory
// organizations at up to 1024 processors), twin-validate (the analytical
// twin against the simulator on the full matrix; it fails when the
// twin's error contract is violated) and twin-sweep (the twin's
// design-space exploration). With -json they emit BENCH_dir.json, the
// BENCH_twin.json document and the sweep report.
// Independent simulations run in parallel on -jobs workers; -cache-dir
// persists results on disk so a re-run only simulates what changed; -v
// prints a per-experiment cache hit/miss/dedup digest. -twin renders
// every figure with the analytical twin's predicted total next to the
// measured one. -timeout bounds each simulation's wall-clock time.
// -scale paper uses the paper's exact data sets (slower); the default
// small scale keeps the workload structure at reduced size. -obs records
// observability data on every run and writes per-bar report + Chrome
// trace artifacts for the figure experiments; -obs-span-rate controls
// how many transactions the span tracer samples. -check runs every
// simulation under the runtime coherence invariant checker: a violated
// invariant fails the experiment instead of producing a figure. -listen
// serves live telemetry (Prometheus /metrics, streaming /progress,
// /debug/pprof) while the sweep is in flight:
//
//	figures -exp all -listen 127.0.0.1:9100 &
//	curl -s http://127.0.0.1:9100/metrics | grep latsim_jobs
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"strings"

	"latsim/internal/config"
	"latsim/internal/core"
	"latsim/internal/runner"
)

// main delegates to realMain so deferred cleanups (profile flush, session
// close) run before the process exits.
func main() { os.Exit(realMain()) }

func realMain() int {
	expFlag := flag.String("exp", "all", "comma-separated experiment ids (all, "+strings.Join(core.ExperimentIDs, ", ")+
		"; opt-in: "+strings.Join(core.ExtraExperimentIDs, ", ")+")")
	verbose := flag.Bool("v", false, "print per-run progress")
	bars := flag.Bool("bars", false, "render figures as stacked bar charts")
	asJSON := flag.Bool("json", false, "emit figures and the opt-in experiments as JSON documents")
	twinFlag := flag.Bool("twin", false, "overlay the analytical twin's predicted totals on every figure (plain renderer only)")
	jobs := flag.Int("jobs", 0, "parallel simulation workers (0 = GOMAXPROCS)")
	cacheDir := flag.String("cache-dir", "", "persistent result-cache directory (empty = no persistence)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	listen := flag.String("listen", "", "serve live telemetry (Prometheus /metrics, /progress, /debug/pprof) on this host:port")
	shared := core.DeclareFlags(flag.CommandLine)
	flag.Parse()

	opts, err := shared()
	if err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		return 2
	}
	if err := config.ValidateListenAddr(*listen); err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		return 2
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "figures:", err)
			return 2
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "figures:", err)
			return 2
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	s := opts.NewSession()
	s.Jobs = *jobs
	s.CacheDir = *cacheDir
	defer s.Close()
	if *verbose {
		s.Trace = os.Stderr
	}
	if *listen != "" {
		tel, err := runner.ServeTelemetry(*listen, s.Metrics)
		if err != nil {
			fmt.Fprintln(os.Stderr, "figures:", err)
			return 2
		}
		defer tel.Close()
		fmt.Fprintf(os.Stderr, "figures: telemetry on http://%s/metrics\n", tel.Addr())
	}

	// writeObs emits the per-bar observability artifacts of a figure.
	writeObs := func(f *core.Figure) error {
		for _, app := range f.Apps {
			for _, bar := range f.Bars[app] {
				if bar.Result == nil || bar.Result.Obs == nil {
					continue
				}
				name := fmt.Sprintf("%s_%s_%s", f.ID, app, bar.Label)
				if _, _, err := bar.Result.Obs.WriteArtifacts(opts.ObsDir, name); err != nil {
					return err
				}
			}
		}
		fmt.Fprintf(os.Stderr, "figures: wrote %s observability artifacts to %s\n", f.ID, opts.ObsDir)
		return nil
	}

	// Rendering itself lives in core.RunExperiment (the golden test in
	// internal/core and bench/ call it too, so outputs stay
	// byte-identical); the CLI contributes only its option wiring and the
	// blank separator line between experiments.
	opt := &core.RenderOptions{JSON: *asJSON, Bars: *bars}
	if *twinFlag {
		// Each figure characterizes the benchmarks again; the engine
		// memoizes the reference runs, so only the first one simulates.
		opt.Twin = s.CharacterizeAll
	}
	if opts.Obs != nil {
		opt.Obs = writeObs
	}
	run := func(id string) error {
		if err := s.RunExperiment(os.Stdout, id, opt); err != nil {
			return err
		}
		fmt.Println()
		return nil
	}

	var ids []string
	for _, id := range strings.Split(*expFlag, ",") {
		id = strings.TrimSpace(id)
		switch id {
		case "":
		case "all":
			ids = append(ids, core.ExperimentIDs...)
		default:
			ids = append(ids, id)
		}
	}
	if len(ids) == 0 {
		ids = core.ExperimentIDs
	}
	var prev runner.Metrics
	for _, id := range ids {
		if err := run(id); err != nil {
			fmt.Fprintf(os.Stderr, "figures: %s: %v\n", id, err)
			return 1
		}
		if *verbose {
			m := s.Metrics()
			delta := runner.Metrics{
				CacheHits:   m.CacheHits - prev.CacheHits,
				CacheMisses: m.CacheMisses - prev.CacheMisses,
				Deduped:     m.Deduped - prev.Deduped,
				Executed:    m.Executed - prev.Executed,
			}
			fmt.Fprintf(os.Stderr, "figures: %s: %s\n", id, delta.CacheString())
			prev = m
		}
	}
	if *verbose {
		fmt.Fprintln(os.Stderr, s.Metrics())
	}
	return 0
}
