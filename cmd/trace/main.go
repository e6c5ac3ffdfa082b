// Command trace records and replays shared-reference traces (the
// trace-driven half of the Tango methodology).
//
// Record a benchmark's reference stream:
//
//	trace -record -app LU -scale small -o lu.trace
//
// Replay it under one or more machine configurations (comma-separated
// models sweep in parallel through the job engine):
//
//	trace -replay lu.trace -model SC,RC -contexts 2 -jobs 4 -cache-dir .cache
//
// -seed overrides the recorded benchmark's workload seed (0 keeps the
// paper's seeds); -timeout bounds the run's wall-clock time. Replays run
// through internal/runner like the figure sweeps: -jobs bounds the
// worker pool and -cache-dir persists results keyed by the trace's
// content hash, so replaying an unchanged trace is near-instant.
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"strings"

	"latsim/internal/config"
	"latsim/internal/core"
	"latsim/internal/machine"
	"latsim/internal/runner"
	"latsim/internal/stats"
	"latsim/internal/trace"
)

func main() {
	record := flag.Bool("record", false, "record a trace")
	replayPath := flag.String("replay", "", "trace file to replay")
	app := flag.String("app", "LU", "benchmark to record: MP3D, LU or PTHOR")
	scaleFlag := flag.String("scale", "small", "data-set scale for -record")
	out := flag.String("o", "", "output file for -record")
	model := flag.String("model", "SC", "consistency model(s): SC, PC, WC or RC; -replay accepts a comma-separated sweep")
	contexts := flag.Int("contexts", 1, "hardware contexts per processor")
	procs := flag.Int("procs", 16, "processors")
	jobs := flag.Int("jobs", 0, "parallel replay workers (0 = GOMAXPROCS)")
	cacheDir := flag.String("cache-dir", "", "persistent result-cache directory for replays (empty = no persistence)")
	listen := flag.String("listen", "", "serve live telemetry for -replay (Prometheus /metrics, /progress, /debug/pprof) on this host:port")
	timeout := flag.Duration("timeout", 0, "wall-clock limit for the run, e.g. 30s (0 = unbounded)")
	seed := flag.Int64("seed", 0, "workload seed override for -record (0 = the paper's seeds)")
	flag.Parse()

	if err := config.ValidateListenAddr(*listen); err != nil {
		fatalf("%v", err)
	}

	cfg := config.Default()
	cfg.Procs = *procs
	cfg.Contexts = *contexts

	var models []config.Consistency
	for _, name := range strings.Split(*model, ",") {
		m, err := config.ParseConsistency(strings.TrimSpace(name))
		if err != nil {
			fatalf("%v", err)
		}
		models = append(models, m)
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	switch {
	case *record:
		if *out == "" {
			fatalf("-record requires -o <file>")
		}
		if len(models) != 1 {
			fatalf("-record takes exactly one -model")
		}
		cfg.Model = models[0]
		validate(cfg)
		doRecord(ctx, cfg, *app, *scaleFlag, *out, *seed)
	case *replayPath != "":
		doReplay(ctx, cfg, models, *replayPath, *jobs, *cacheDir, *listen)
	default:
		fatalf("need -record or -replay <file>")
	}
}

func validate(cfg config.Config) {
	if err := cfg.Validate(); err != nil {
		fatalf("%v", err)
	}
}

func doRecord(ctx context.Context, cfg config.Config, appName, scaleFlag, out string, seed int64) {
	scale, err := core.ParseScale(scaleFlag)
	if err != nil {
		fatalf("%v", err)
	}
	app, err := core.NewApp(appName, scale, false, seed)
	if err != nil {
		fatalf("%v", err)
	}
	rec := trace.NewRecorder(app)
	m, err := machine.New(cfg)
	if err != nil {
		fatalf("%v", err)
	}
	res, err := m.RunContext(ctx, rec)
	if err != nil {
		fatalf("%v", err)
	}
	tr := rec.Trace()
	f, err := os.Create(out)
	if err != nil {
		fatalf("%v", err)
	}
	defer f.Close()
	n, err := tr.WriteTo(f)
	if err != nil {
		fatalf("writing trace: %v", err)
	}
	fmt.Printf("recorded %s: %d processes, %d events, %d bytes -> %s\n",
		tr.AppName, tr.Procs, tr.Events(), n, out)
	fmt.Printf("execution-driven run: %d cycles\n", res.Elapsed)
}

// doReplay runs the trace under each requested model through the job
// engine: the jobs are keyed by the trace file's content hash plus the
// configuration, so sweeps parallelize and cached results are reused.
func doReplay(ctx context.Context, cfg config.Config, models []config.Consistency, path string, jobs int, cacheDir, listen string) {
	raw, err := os.ReadFile(path)
	if err != nil {
		fatalf("%v", err)
	}
	sum := sha256.Sum256(raw)
	tr, err := trace.ReadTrace(bytes.NewReader(raw))
	if err != nil {
		fatalf("reading trace: %v", err)
	}

	exec := func(ctx context.Context, j runner.Job) (*machine.Result, error) {
		m, err := machine.New(j.Cfg)
		if err != nil {
			return nil, err
		}
		// A fresh Replayer per run: it holds per-machine state (locks,
		// remap base); the parsed trace itself is read-only and shared.
		return m.RunContext(ctx, trace.NewReplayer(tr))
	}
	eng, err := runner.New(runner.Options{Workers: jobs, CacheDir: cacheDir}, exec)
	if err != nil {
		fatalf("%v", err)
	}
	defer eng.Close()
	if listen != "" {
		tel, err := runner.ServeTelemetry(listen, eng.Metrics)
		if err != nil {
			fatalf("%v", err)
		}
		defer tel.Close()
		fmt.Fprintf(os.Stderr, "trace: telemetry on http://%s/metrics\n", tel.Addr())
	}

	batch := make([]runner.Job, len(models))
	for i, mdl := range models {
		c := cfg
		c.Model = mdl
		validate(c)
		batch[i] = runner.Job{
			App:   tr.AppName + "+replay",
			Trace: hex.EncodeToString(sum[:]),
			Cfg:   c,
		}
	}
	results, err := eng.RunAll(ctx, batch)
	if err != nil {
		fatalf("%v", err)
	}
	for i, res := range results {
		c := batch[i].Cfg
		fmt.Printf("replayed %s (%d events) on %s: %d cycles, util %.1f%%\n",
			tr.AppName, tr.Events(), c.Name(), res.Elapsed, 100*res.ProcessorUtilization())
		total := float64(res.Breakdown.Total())
		for b := stats.Bucket(0); b < stats.NumBuckets; b++ {
			if v := res.Breakdown.Time[b]; v > 0 {
				fmt.Printf("  %-12s %5.1f%%\n", b, 100*float64(v)/total)
			}
		}
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "trace: "+format+"\n", args...)
	os.Exit(1)
}
