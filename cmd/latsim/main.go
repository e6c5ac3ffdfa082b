// Command latsim runs one benchmark on one machine configuration and
// prints the execution-time breakdown and statistics.
//
// Usage:
//
//	latsim [-app MP3D|LU|PTHOR] [-model SC|PC|WC|RC] [-nocache] [-prefetch]
//	       [-contexts N] [-switch N] [-procs N] [-scale small|paper] [-fullcache]
//	       [-dir-org full-map|limited-pointer|coarse-vector]
//	       [-dir-pointers N] [-dir-coarseness N]
//	       [-timeout D] [-seed N] [-obs] [-obs-dir DIR] [-obs-interval N]
//	       [-obs-span-rate R] [-check] [-twin] [-record FILE | -replay FILE]
//	latsim -from DIR/RUN.report.json
//
// -timeout bounds the simulation's wall-clock time. -obs enables the
// observability recorder and writes <dir>/<run>.report.json plus a
// Perfetto-loadable <run>.trace.json (see the README's Observability
// section). -check runs the simulation under the runtime coherence
// invariant checker (internal/check): any violation aborts the run with
// the offending line address, node and cycle. -twin additionally prints
// the analytical twin's predicted breakdown for the same configuration
// (the twin's reference runs simulate — and cache — on first use).
// -from re-renders a saved report without simulating: it prints the
// report's summary and writes RUN.trace.json beside it.
//
// -record FILE also writes the run's shared-reference trace (the
// trace-driven half of the Tango methodology) to FILE. -replay FILE runs
// a recorded trace on the configuration instead of a benchmark: the
// trace supplies the workload, so -app, -scale and -seed only describe
// recordings, and the machine must run as many processes as the
// recording (a 16-process trace runs on -procs 8 -contexts 2):
//
//	latsim -app LU -record lu.trace
//	latsim -replay lu.trace -model RC
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"latsim/internal/config"
	"latsim/internal/core"
	"latsim/internal/dirset"
	"latsim/internal/machine"
	"latsim/internal/obs"
	"latsim/internal/runner"
	"latsim/internal/stats"
	"latsim/internal/trace"
	"latsim/internal/twin"
)

func main() {
	app := flag.String("app", "MP3D", "benchmark: MP3D, LU or PTHOR")
	model := flag.String("model", "SC", "memory consistency model: SC, PC, WC or RC")
	nocache := flag.Bool("nocache", false, "do not cache shared data (Figure 2 baseline)")
	prefetch := flag.Bool("prefetch", false, "run the software-prefetching variant")
	contexts := flag.Int("contexts", 1, "hardware contexts per processor (1, 2, 4)")
	switchPen := flag.Int("switch", 4, "context-switch penalty in cycles")
	procs := flag.Int("procs", 16, "number of processors")
	fullcache := flag.Bool("fullcache", false, "use full 64KB/256KB caches instead of scaled 2KB/4KB")
	meshNet := flag.Bool("mesh", false, "use the 2-D wormhole mesh interconnect instead of the direct network")
	dirOrg := flag.String("dir-org", "full-map", "directory organization: full-map, limited-pointer or coarse-vector")
	dirPointers := flag.Int("dir-pointers", 4, "limited-pointer directory: pointers per entry before broadcast overflow")
	dirCoarseness := flag.Int("dir-coarseness", 4, "coarse-vector directory: processors per sharer bit")
	seed := flag.Int64("seed", 0, "workload seed override (0 = the paper's seeds)")
	obsInterval := flag.Uint64("obs-interval", 0, "observability sampling interval in cycles (0 = default)")
	twinFlag := flag.Bool("twin", false, "also print the analytical twin's predicted breakdown for this configuration")
	from := flag.String("from", "", "re-render this saved .report.json (summary + Chrome trace beside it) instead of simulating")
	record := flag.String("record", "", "also write the run's shared-reference trace to this file")
	replay := flag.String("replay", "", "run this recorded trace instead of -app")
	shared := core.DeclareFlags(flag.CommandLine)
	flag.Parse()
	if *from != "" {
		rerender(*from)
		return
	}

	opts, err := shared()
	if err != nil {
		usagef("%v", err)
	}
	switch {
	case *record != "" && *replay != "":
		usagef("-record and -replay are exclusive")
	case *replay != "" && *twinFlag:
		usagef("-twin predicts a benchmark, not a -replay")
	}

	cfg := config.Default()
	cfg.Procs = *procs
	cfg.CacheShared = !*nocache
	cfg.Prefetch = *prefetch
	cfg.Contexts = *contexts
	cfg.SwitchPenalty = *switchPen
	if cfg.Model, err = config.ParseConsistency(*model); err != nil {
		usagef("%v", err)
	}
	if *fullcache {
		cfg = cfg.FullCaches()
	}
	cfg.MeshNetwork = *meshNet
	org, err := dirset.ParseOrg(*dirOrg)
	if err != nil {
		usagef("%v", err)
	}
	cfg.DirOrg = org
	cfg.DirPointers = *dirPointers
	cfg.DirCoarseness = *dirCoarseness
	if err := cfg.Validate(); err != nil {
		usagef("%v", err)
	}
	if opts.Obs != nil {
		opts.Obs.Interval = *obsInterval
	}

	// The run's workload: the benchmark, the benchmark under a trace
	// recorder, or a trace replayer. All three run through core.ExecApp.
	job := runner.Job{App: *app, Scale: opts.Scale.String(), Seed: *seed, Obs: opts.Obs, Check: opts.Check, Cfg: cfg}
	origin := opts.Scale.String() + " scale"
	var src machine.App
	var rec *trace.Recorder
	if *replay != "" {
		f, err := os.Open(*replay)
		if err != nil {
			fatalf("%v", err)
		}
		tr, err := trace.ReadTrace(f)
		f.Close()
		if err != nil {
			fatalf("reading %s: %v", *replay, err)
		}
		src = trace.NewReplayer(tr)
		job.App = src.Name()
		origin = "trace " + *replay
	} else {
		if src, err = core.NewApp(*app, opts.Scale, cfg.Prefetch, *seed); err != nil {
			usagef("%v", err)
		}
		if *record != "" {
			rec = trace.NewRecorder(src)
			src = rec
		}
	}
	ctx := context.Background()
	if opts.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.Timeout)
		defer cancel()
	}
	res, err := core.ExecApp(ctx, job, src)
	if err != nil {
		fatalf("%v", err)
	}

	fmt.Printf("%s on %s (%s, %d procs)\n", res.AppName, cfg.Name(), origin, cfg.Procs)
	fmt.Printf("  elapsed:            %d cycles (%.2f ms at 33 MHz)\n",
		res.Elapsed, float64(res.Elapsed)*30e-6)
	fmt.Printf("  processor util:     %.1f%%\n", 100*res.ProcessorUtilization())
	total := res.Breakdown.Total()
	fmt.Println("  breakdown (avg processor):")
	for b := stats.Bucket(0); b < stats.NumBuckets; b++ {
		if v := res.Breakdown.Time[b]; v > 0 {
			fmt.Printf("    %-12s %12d  (%5.1f%%)\n", b, v, 100*float64(v)/float64(total))
		}
	}
	fmt.Printf("  shared refs:        %d reads (%.0f%% hit), %d writes (%.0f%% hit)\n",
		res.SharedReads(), 100*res.ReadHitRate(), res.SharedWrites(), 100*res.WriteHitRate())
	fmt.Printf("  sync:               %d lock acquires, %d barrier arrivals\n", res.Locks(), res.Barriers())
	if cfg.DirOrg != dirset.FullMap {
		fmt.Printf("  dir invals:         %d sent, %d spurious, %d overflows (%s)\n",
			res.InvalsSent(), res.SpuriousInvals(), res.DirOverflows(), cfg.DirOrg)
	}
	if res.Prefetches() > 0 {
		fmt.Printf("  prefetches:         %d issued\n", res.Prefetches())
	}
	fmt.Printf("  shared data:        %d KB\n", res.SharedBytes/1024)
	fmt.Printf("  median run length:  %d cycles\n", res.MedianRunLength())
	fmt.Printf("  sim events:         %d\n", res.Events)
	if opts.Check {
		fmt.Printf("  invariant checks:   %d (0 violations)\n", res.InvariantChecks)
	}
	if rec != nil {
		tr := rec.Trace()
		f, err := os.Create(*record)
		if err != nil {
			fatalf("%v", err)
		}
		n, err := tr.WriteTo(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fatalf("writing trace: %v", err)
		}
		fmt.Printf("  recorded trace:     %d processes, %d events, %d bytes -> %s\n", tr.Procs, tr.Events(), n, *record)
	}

	if *twinFlag {
		s := opts.NewSession()
		s.Seed = *seed
		defer s.Close()
		char, err := s.Characterize(*app)
		if err != nil {
			fatalf("%v", err)
		}
		pred, err := twin.New(char).Predict(cfg)
		if err != nil {
			fatalf("twin: %v", err)
		}
		fmt.Printf("  twin prediction:    %.0f cycles (%+.1f%% vs measured)\n",
			pred.Total, 100*(pred.Total-float64(total))/float64(total))
		for b := stats.Bucket(0); b < stats.NumBuckets; b++ {
			if v := pred.Time[b]; v >= 0.5 {
				fmt.Printf("    %-12s %12.0f  (%5.1f%%)\n", b, v, 100*v/pred.Total)
			}
		}
	}

	if res.Obs != nil {
		res.Obs.Summary(os.Stdout)
		name := fmt.Sprintf("%s_%s", res.AppName, cfg.Name())
		repPath, trPath, err := res.Obs.WriteArtifacts(opts.ObsDir, name)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("  obs report:         %s\n", repPath)
		fmt.Printf("  obs trace:          %s (open at ui.perfetto.dev)\n", trPath)
	}
}

// rerender prints the summary of a saved report and writes its Chrome
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
	if err == nil {
		err = rep.WriteChromeTrace(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fatalf("writing trace: %v", err)
	}
	fmt.Printf("  obs trace:          %s (open at ui.perfetto.dev)\n", trPath)
}

// usagef reports a bad flag value and exits 2.
func usagef(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "latsim: "+format+"\n", args...)
	os.Exit(2)
}

// fatalf reports a failed run and exits 1.
func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "latsim: "+format+"\n", args...)
	os.Exit(1)
}
