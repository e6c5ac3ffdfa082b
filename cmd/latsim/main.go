// Command latsim runs one benchmark on one machine configuration and
// prints the execution-time breakdown and statistics.
//
// Usage:
//
//	latsim [-app MP3D|LU|PTHOR] [-model SC|RC] [-nocache] [-prefetch]
//	       [-contexts N] [-switch N] [-procs N] [-scale small|paper] [-fullcache]
//	       [-dir-org full-map|limited-pointer|coarse-vector]
//	       [-dir-pointers N] [-dir-coarseness N]
//	       [-timeout D] [-seed N] [-obs] [-obs-dir DIR] [-obs-interval N]
//	       [-obs-span-rate R] [-check] [-twin]
//
// -timeout bounds the run's wall-clock time: the simulation is canceled
// through the job engine's context when it expires. -obs enables the
// observability recorder and writes <dir>/<run>.report.json plus a
// Perfetto-loadable <run>.trace.json (see the README's Observability
// section). -check runs the simulation under the runtime coherence
// invariant checker (internal/check): any violation aborts the run with
// the offending line address, node and cycle. -twin additionally prints
// the analytical twin's predicted breakdown for the same configuration
// (the twin's reference runs simulate — and cache — on first use).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"latsim/internal/config"
	"latsim/internal/core"
	"latsim/internal/dirset"
	"latsim/internal/obs"
	"latsim/internal/stats"
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
	scaleFlag := flag.String("scale", "small", "data-set scale: small or paper")
	fullcache := flag.Bool("fullcache", false, "use full 64KB/256KB caches instead of scaled 2KB/4KB")
	meshNet := flag.Bool("mesh", false, "use the 2-D wormhole mesh interconnect instead of the direct network")
	dirOrg := flag.String("dir-org", "full-map", "directory organization: full-map, limited-pointer or coarse-vector")
	dirPointers := flag.Int("dir-pointers", 4, "limited-pointer directory: pointers per entry before broadcast overflow")
	dirCoarseness := flag.Int("dir-coarseness", 4, "coarse-vector directory: processors per sharer bit")
	timeout := flag.Duration("timeout", 0, "wall-clock limit for the run, e.g. 30s (0 = unbounded)")
	seed := flag.Int64("seed", 0, "workload seed override (0 = the paper's seeds)")
	obsFlag := flag.Bool("obs", false, "record observability data and write report + Chrome trace artifacts")
	obsDir := flag.String("obs-dir", "", "directory for observability artifacts (implies -obs; default \"obs\")")
	obsInterval := flag.Uint64("obs-interval", 0, "observability sampling interval in cycles (0 = default)")
	spanRate := flag.Float64("obs-span-rate", 1.0/64, "transaction span-tracing sample rate in (0, 1] when -obs is set (0 = off)")
	checkFlag := flag.Bool("check", false, "run under the coherence invariant checker; violations abort the run")
	twinFlag := flag.Bool("twin", false, "also print the analytical twin's predicted breakdown for this configuration")
	flag.Parse()

	scale, err := core.ParseScale(*scaleFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if err := config.ValidateSpanRate(*spanRate); err != nil {
		fmt.Fprintln(os.Stderr, "latsim:", err)
		os.Exit(2)
	}

	cfg := config.Default()
	cfg.Procs = *procs
	cfg.CacheShared = !*nocache
	cfg.Prefetch = *prefetch
	cfg.Contexts = *contexts
	cfg.SwitchPenalty = *switchPen
	if cfg.Model, err = config.ParseConsistency(*model); err != nil {
		fmt.Fprintln(os.Stderr, "latsim:", err)
		os.Exit(2)
	}
	if *fullcache {
		cfg = cfg.FullCaches()
	}
	cfg.MeshNetwork = *meshNet
	org, err := dirset.ParseOrg(*dirOrg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "latsim:", err)
		os.Exit(2)
	}
	cfg.DirOrg = org
	cfg.DirPointers = *dirPointers
	cfg.DirCoarseness = *dirCoarseness
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "latsim:", err)
		os.Exit(2)
	}

	s := core.NewSession(scale)
	s.Seed = *seed
	if *obsDir != "" {
		*obsFlag = true
	} else if *obsFlag {
		*obsDir = "obs"
	}
	if *obsFlag {
		s.Obs = &obs.Options{Interval: *obsInterval, SpanRate: *spanRate}
	}
	s.Check = *checkFlag
	if *timeout > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		defer cancel()
		s.Ctx = ctx
	}
	defer s.Close()
	res, err := s.Run(*app, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "latsim:", err)
		os.Exit(1)
	}

	fmt.Printf("%s on %s (%s scale, %d procs)\n", res.AppName, cfg.Name(), scale, cfg.Procs)
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
	if *checkFlag {
		fmt.Printf("  invariant checks:   %d (0 violations)\n", res.InvariantChecks)
	}

	if *twinFlag {
		char, err := s.Characterize(*app)
		if err != nil {
			fmt.Fprintln(os.Stderr, "latsim:", err)
			os.Exit(1)
		}
		pred, err := twin.New(char).Predict(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "latsim: twin:", err)
			os.Exit(1)
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
		repPath, trPath, err := res.Obs.WriteArtifacts(*obsDir, name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "latsim:", err)
			os.Exit(1)
		}
		fmt.Printf("  obs report:         %s\n", repPath)
		fmt.Printf("  obs trace:          %s (open at ui.perfetto.dev)\n", trPath)
	}
}
