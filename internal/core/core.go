// Package core is the paper's primary contribution rebuilt as a library:
// the consistent comparative-evaluation framework for the four latency
// reducing/tolerating techniques. It defines every experiment in the
// evaluation — Tables 1 and 2, Figures 2 through 6, the hit-rate and
// speedup summaries — plus the ablations called out in DESIGN.md, and
// renders them in the paper's format (normalized execution-time
// breakdowns).
package core

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"latsim/internal/apps/lu"
	"latsim/internal/apps/mp3d"
	"latsim/internal/apps/pthor"
	"latsim/internal/config"
	"latsim/internal/machine"
	"latsim/internal/obs"
	"latsim/internal/runner"
	"latsim/internal/sim"
	"latsim/internal/stats"
)

// Scale selects the data-set sizes.
type Scale int

const (
	// ScaleSmall runs reduced data sets with the same structure — the
	// same methodological scaling the paper applies to cache sizes.
	// Suitable for benchmarks and CI.
	ScaleSmall Scale = iota
	// ScalePaper runs the paper's exact data sets (10,000-particle
	// MP3D, 200x200 LU, ~11,000-gate PTHOR).
	ScalePaper
)

func (s Scale) String() string {
	if s == ScalePaper {
		return "paper"
	}
	return "small"
}

// ParseScale converts a -scale flag value.
func ParseScale(v string) (Scale, error) {
	switch v {
	case "small":
		return ScaleSmall, nil
	case "paper":
		return ScalePaper, nil
	}
	return 0, fmt.Errorf("core: unknown scale %q (want small or paper)", v)
}

// AppNames lists the benchmarks in the paper's order.
var AppNames = []string{"MP3D", "LU", "PTHOR"}

// Session runs experiments through the parallel job engine
// (internal/runner): every (app, configuration) pair becomes a hashed
// job, duplicates across figures (e.g. the cached-SC baseline) collapse
// onto one execution, and — when CacheDir is set — results persist on
// disk so re-running figures over unchanged configurations is
// near-instant. Simulations are deterministic, so parallel, sequential
// and cache-warmed runs produce identical results.
//
// The exported knobs must be set before the first Run/experiment call;
// they take effect when the engine is lazily built.
type Session struct {
	Scale Scale
	Trace io.Writer // optional progress output

	// Jobs bounds concurrent simulations (0 = runtime.GOMAXPROCS).
	Jobs int
	// CacheDir enables the persistent result cache ("" = memory only).
	CacheDir string
	// Timeout is the per-job wall-clock limit (0 = none).
	Timeout time.Duration
	// Seed overrides the benchmarks' workload seeds (0 = paper seeds).
	Seed int64
	// Obs enables observability recording on every run (nil = off).
	// Obs-enabled jobs hash — and therefore cache — separately from
	// plain runs.
	Obs *obs.Options
	// Check runs every job under the runtime coherence invariant
	// checker (internal/check): a run that violates a coherence
	// invariant fails instead of returning a result. Checked jobs hash
	// — and therefore cache — separately from plain runs.
	Check bool
	// Engine, when non-nil, is an externally owned job engine the
	// session submits to instead of building its own, so its owner
	// chooses the engine's options and hooks (the host-time benchmark
	// in bench/ traces its jobs this way). The session never closes a
	// shared engine; its owner does. Jobs, CacheDir, Timeout and Trace
	// are ignored when Engine is set (they configure the engine the
	// session would have built).
	Engine *runner.Runner

	mu  sync.Mutex
	eng *runner.Runner
}

// NewSession creates an experiment session at the given scale.
func NewSession(scale Scale) *Session {
	return &Session{Scale: scale}
}

// NewApp builds a benchmark instance (fresh per run: apps hold state):
// one of AppNames at the given scale, with software prefetching on or off.
// A nonzero seed replaces the paper's input seed.
func NewApp(name string, scale Scale, prefetch bool, seed int64) (machine.App, error) {
	switch name {
	case "MP3D":
		p := mp3d.Default()
		if scale == ScaleSmall {
			p = mp3d.Scaled(2000, 2)
		}
		if seed != 0 {
			p.Seed = seed
		}
		p.Prefetch = prefetch
		return mp3d.New(p), nil
	case "LU":
		p := lu.Default()
		if scale == ScaleSmall {
			p = lu.Scaled(96)
		}
		if seed != 0 {
			p.Seed = seed
		}
		p.Prefetch = prefetch
		return lu.New(p), nil
	case "PTHOR":
		p := pthor.Default()
		if scale == ScaleSmall {
			p.Circuit.Gates = 3000
			p.Circuit.Depth = 12
			p.Cycles = 2
		}
		if seed != 0 {
			p.Circuit.Seed = seed
		}
		p.Prefetch = prefetch
		return pthor.New(p), nil
	}
	return nil, fmt.Errorf("core: unknown app %q (valid: %s)", name, strings.Join(AppNames, ", "))
}

// engine returns the shared engine when one was injected, else lazily
// builds the session's own from its knobs.
func (s *Session) engine() (*runner.Runner, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.Engine != nil {
		return s.Engine, nil
	}
	if s.eng == nil {
		eng, err := runner.New(runner.Options{
			Workers:  s.Jobs,
			CacheDir: s.CacheDir,
			Timeout:  s.Timeout,
			Trace:    s.Trace,
		}, Exec)
		if err != nil {
			return nil, err
		}
		s.eng = eng
	}
	return s.eng, nil
}

// Exec is the session's ExecFunc — one fresh machine per job — exported
// so a caller that builds its own engine (bench/) runs jobs with exactly
// the execution semantics every session uses.
func Exec(ctx context.Context, j runner.Job) (*machine.Result, error) {
	scale, err := ParseScale(j.Scale)
	if err != nil {
		return nil, err
	}
	app, err := NewApp(j.App, scale, j.Cfg.Prefetch, j.Seed)
	if err != nil {
		return nil, err
	}
	return ExecApp(ctx, j, app)
}

// ExecApp runs app on a fresh machine built from j's configuration, with
// j's observability and checker options. Exec runs a benchmark through
// it; cmd/latsim also runs a trace recorder or replayer.
func ExecApp(ctx context.Context, j runner.Job, app machine.App) (*machine.Result, error) {
	if j.Obs != nil {
		if err := config.ValidateSpanRate(j.Obs.SpanRate); err != nil {
			return nil, err
		}
	}
	m, err := machine.New(j.Cfg)
	if err != nil {
		return nil, err
	}
	if j.Obs != nil {
		m.EnableObs(*j.Obs)
	}
	if j.Check {
		if _, err := m.EnableCheck(); err != nil {
			return nil, err
		}
	}
	res, err := m.RunContext(ctx, app)
	if err != nil {
		return nil, fmt.Errorf("core: %s on %s: %w", j.App, j.Cfg.Name(), err)
	}
	return res, nil
}

func (s *Session) job(app string, cfg config.Config) runner.Job {
	return runner.Job{App: app, Scale: s.Scale.String(), Seed: s.Seed, Obs: s.Obs, Check: s.Check, Cfg: cfg}
}

// Run simulates one (app, configuration) pair through the job engine.
// Repeated runs of the same pair return the memoized result.
func (s *Session) Run(app string, cfg config.Config) (*machine.Result, error) {
	eng, err := s.engine()
	if err != nil {
		return nil, err
	}
	return eng.Run(context.Background(), s.job(app, cfg))
}

// Request names one (application, configuration) run in a batch.
type Request struct {
	App string
	Cfg config.Config
}

// RunBatch submits every request to the job engine at once and waits for
// all of them, returning results in request order. Duplicate requests
// dedup onto a single simulation.
func (s *Session) RunBatch(reqs []Request) ([]*machine.Result, error) {
	eng, err := s.engine()
	if err != nil {
		return nil, err
	}
	jobs := make([]runner.Job, len(reqs))
	for i, r := range reqs {
		jobs[i] = s.job(r.App, r.Cfg)
	}
	return eng.RunAll(context.Background(), jobs)
}

// runAll runs every app on every configuration as one batch, in
// requests' app-major order, and returns the results indexed
// [app][config].
func (s *Session) runAll(apps []string, cfgs []config.Config) ([][]*machine.Result, error) {
	flat, err := s.RunBatch(requests(apps, cfgs))
	if err != nil {
		return nil, err
	}
	out := make([][]*machine.Result, len(apps))
	for i := range out {
		out[i] = flat[i*len(cfgs) : (i+1)*len(cfgs)]
	}
	return out, nil
}

// Metrics snapshots the job engine's progress counters. With a shared
// engine the counters cover every session on it.
func (s *Session) Metrics() runner.Metrics {
	s.mu.Lock()
	eng := s.eng
	if s.Engine != nil {
		eng = s.Engine
	}
	s.mu.Unlock()
	if eng == nil {
		return runner.Metrics{}
	}
	return eng.Metrics()
}

// Close rejects further submissions; in-flight jobs finish normally.
// A shared Engine is left running — its owner closes it.
func (s *Session) Close() {
	s.mu.Lock()
	eng := s.eng
	s.mu.Unlock()
	if eng != nil {
		eng.Close()
	}
}

// Base returns the paper's base machine configuration (cached, SC,
// single context).
func Base() config.Config { return config.Default() }

// Bar is one stacked bar of a figure: a configuration's execution time
// decomposed into bucket percentages of the per-application baseline
// (the baseline bar totals 100).
type Bar struct {
	Label  string
	Pct    [stats.NumBuckets]float64
	Total  float64
	Result *machine.Result
}

// Figure is one reproduced figure: per application, a list of bars.
type Figure struct {
	ID     string
	Title  string
	Apps   []string
	Bars   map[string][]Bar
	Legend []stats.Bucket // buckets shown, bottom-up
}

// barFor normalizes a result against base.
func barFor(label string, res *machine.Result, base sim.Time) Bar {
	b := Bar{Label: label, Result: res}
	n := res.Breakdown.Normalized(base)
	for i := range n {
		b.Pct[i] = n[i]
		b.Total += n[i]
	}
	return b
}

// Render prints the figure as a table in the paper's breakdown format.
func (f *Figure) Render(w io.Writer) {
	fmt.Fprintf(w, "%s: %s\n", f.ID, f.Title)
	for _, app := range f.Apps {
		fmt.Fprintf(w, "  %s\n", app)
		fmt.Fprintf(w, "    %-24s %8s", "configuration", "total")
		for _, b := range f.Legend {
			fmt.Fprintf(w, " %9s", b)
		}
		fmt.Fprintln(w)
		for _, bar := range f.Bars[app] {
			fmt.Fprintf(w, "    %-24s %8.1f", bar.Label, bar.Total)
			for _, b := range f.Legend {
				fmt.Fprintf(w, " %9.1f", bar.Pct[b])
			}
			fmt.Fprintln(w)
		}
	}
}

// singleCtxLegend matches Figures 2-4: busy, read, write, sync (+pf).
var singleCtxLegend = []stats.Bucket{
	stats.Busy, stats.ReadStall, stats.WriteStall, stats.SyncStall,
	stats.PrefetchOverhead,
}

// mcLegend matches Figures 5-6: busy, switching, all idle, no-switch
// (+pf overhead in Figure 6).
var mcLegend = []stats.Bucket{
	stats.Busy, stats.Switching, stats.AllIdle, stats.NoSwitchIdle,
	stats.SyncStall, stats.PrefetchOverhead,
}

// figureSpec declares a normalized-breakdown figure: one bar per
// configuration, each normalized to the first bar's total.
type figureSpec struct {
	name, title string
	legend      []stats.Bucket
	bars        []barSpec
}

// barSpec is one labeled configuration.
type barSpec struct {
	label string
	cfg   config.Config
}

func barConfigs(bars []barSpec) []config.Config {
	cfgs := make([]config.Config, len(bars))
	for i, b := range bars {
		cfgs[i] = b.cfg
	}
	return cfgs
}

// figure runs spec's bars on every benchmark as one batch and
// normalizes each benchmark's bars to its first.
func (s *Session) figure(spec figureSpec) (*Figure, error) {
	res, err := s.runAll(AppNames, barConfigs(spec.bars))
	if err != nil {
		return nil, err
	}
	f := &Figure{ID: spec.name, Title: spec.title, Apps: AppNames, Bars: map[string][]Bar{}, Legend: spec.legend}
	for i, app := range AppNames {
		base := res[i][0].Breakdown.Total()
		bars := make([]Bar, len(spec.bars))
		for j, b := range spec.bars {
			bars[j] = barFor(b.label, res[i][j], base)
		}
		f.Bars[app] = bars
	}
	return f, nil
}

// fig2 reproduces "Effect of caching shared data": per application,
// normalized breakdowns without and with hardware-coherent caching of
// shared data, under sequential consistency.
func fig2() figureSpec {
	nocache := Base()
	nocache.CacheShared = false
	return figureSpec{"Figure 2", "Effect of caching shared data (SC)", singleCtxLegend,
		[]barSpec{{"No Cache", nocache}, {"Cache", Base()}}}
}

// fig3 reproduces "Effect of relaxing the consistency model": SC vs RC
// with coherent caches, normalized to SC.
func fig3() figureSpec {
	rc := Base()
	rc.Model = config.RC
	return figureSpec{"Figure 3", "Effect of relaxing the consistency model", singleCtxLegend,
		[]barSpec{{"SC", Base()}, {"RC", rc}}}
}

// fig4 reproduces "Effect of prefetching": {SC, RC} x {no prefetch,
// prefetch}, normalized to SC without prefetching.
func fig4() figureSpec {
	var bars []barSpec
	for _, mdl := range []config.Consistency{config.SC, config.RC} {
		for _, pf := range []bool{false, true} {
			cfg := Base()
			cfg.Model = mdl
			cfg.Prefetch = pf
			label := mdl.String() + " Normal"
			if pf {
				label = mdl.String() + " Prefetch"
			}
			bars = append(bars, barSpec{label, cfg})
		}
	}
	return figureSpec{"Figure 4", "Effect of software-controlled prefetching", singleCtxLegend, bars}
}

// fig5 reproduces "Effect of multiple contexts" under SC: 1, 2 and 4
// contexts with context-switch penalties of 16 and 4 cycles.
func fig5() figureSpec {
	bars := []barSpec{{"1 ctx", Base()}}
	for _, pen := range []int{16, 4} {
		for _, ctxs := range []int{2, 4} {
			cfg := Base()
			cfg.Contexts = ctxs
			cfg.SwitchPenalty = pen
			bars = append(bars, barSpec{fmt.Sprintf("%d ctx/sw %d", ctxs, pen), cfg})
		}
	}
	return figureSpec{"Figure 5", "Effect of multiple contexts (SC)", mcLegend, bars}
}

// fig6 reproduces "Effect of combining the schemes": {SC, RC} x {1, 2,
// 4 contexts} without prefetching plus RC x {1, 2, 4 contexts} with
// prefetching, all with a 4-cycle switch penalty, normalized to SC/1ctx.
func fig6() figureSpec {
	var bars []barSpec
	for _, g := range []struct {
		tag string
		mdl config.Consistency
		pf  bool
	}{{"SC", config.SC, false}, {"RC", config.RC, false}, {"RC+pf", config.RC, true}} {
		for _, ctxs := range []int{1, 2, 4} {
			cfg := Base()
			cfg.Model = g.mdl
			cfg.Prefetch = g.pf
			cfg.Contexts = ctxs
			cfg.SwitchPenalty = 4
			bars = append(bars, barSpec{fmt.Sprintf("%s %d ctx", g.tag, ctxs), cfg})
		}
	}
	return figureSpec{"Figure 6", "Effect of combining the schemes (switch penalty 4)", mcLegend, bars}
}

// Table1Row is one latency row: configured vs measured service time.
type Table1Row struct {
	Operation string
	Paper     sim.Time
	Measured  sim.Time
}

// Table2Row is one application's general statistics (Table 2).
type Table2Row struct {
	App           string
	UsefulKCyc    uint64
	SharedReadsK  uint64
	SharedWritesK uint64
	Locks         uint64
	Barriers      uint64
	SharedKB      uint64
	ReadHitRate   float64
	WriteHitRate  float64
	Utilization   float64
	MedianRun     sim.Time
}

// Table2 reproduces the benchmark statistics table (under the cached-SC
// base machine).
func (s *Session) Table2() ([]Table2Row, error) {
	res, err := s.runAll(AppNames, baseOnly())
	if err != nil {
		return nil, err
	}
	var rows []Table2Row
	for i, app := range AppNames {
		r := res[i][0]
		rows = append(rows, Table2Row{
			App:           app,
			UsefulKCyc:    r.UsefulCycles() / 1000,
			SharedReadsK:  r.SharedReads() / 1000,
			SharedWritesK: r.SharedWrites() / 1000,
			Locks:         r.Locks(),
			Barriers:      r.Barriers(),
			SharedKB:      r.SharedBytes / 1024,
			ReadHitRate:   r.ReadHitRate(),
			WriteHitRate:  r.WriteHitRate(),
			Utilization:   r.ProcessorUtilization(),
			MedianRun:     r.MedianRunLength(),
		})
	}
	return rows, nil
}

// RenderTable2 prints Table 2 in the paper's layout.
func RenderTable2(w io.Writer, rows []Table2Row) {
	fmt.Fprintln(w, "Table 2: General statistics for the benchmarks")
	fmt.Fprintf(w, "  %-8s %12s %12s %13s %8s %9s %10s %7s %7s %6s %7s\n",
		"Program", "Useful(K)", "Reads(K)", "Writes(K)", "Locks", "Barriers",
		"Shared(KB)", "hitR", "hitW", "util", "runlen")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-8s %12d %12d %13d %8d %9d %10d %7.2f %7.2f %6.2f %7d\n",
			r.App, r.UsefulKCyc, r.SharedReadsK, r.SharedWritesK, r.Locks,
			r.Barriers, r.SharedKB, r.ReadHitRate, r.WriteHitRate,
			r.Utilization, r.MedianRun)
	}
}

// SpeedupRow summarizes a technique combination's speedup per app.
type SpeedupRow struct {
	App     string
	Label   string
	Speedup float64
}

// summaryBars are the headline technique combinations, after the
// uncached sequentially consistent baseline they are measured against.
func summaryBars() []barSpec {
	nocache := Base()
	nocache.CacheShared = false
	rc := Base()
	rc.Model = config.RC
	pf := rc
	pf.Prefetch = true
	mc := rc
	mc.Contexts = 4
	mc.SwitchPenalty = 4
	return []barSpec{{"nocache", nocache}, {"cache", Base()}, {"cache+RC", rc}, {"cache+RC+pf", pf}, {"cache+RC+4ctx", mc}}
}

// Summary computes the paper's headline speedups: each combination versus
// the uncached sequentially consistent baseline, and the best overall
// (the paper reports 4x to 7x).
func (s *Session) Summary() ([]SpeedupRow, error) {
	bars := summaryBars()
	res, err := s.runAll(AppNames, barConfigs(bars))
	if err != nil {
		return nil, err
	}
	var rows []SpeedupRow
	for i, app := range AppNames {
		base := float64(res[i][0].Breakdown.Total())
		for j := 1; j < len(bars); j++ {
			rows = append(rows, SpeedupRow{
				App:     app,
				Label:   bars[j].label,
				Speedup: base / float64(res[i][j].Breakdown.Total()),
			})
		}
	}
	return rows, nil
}

// BestSpeedups returns, per app, the best combination's speedup.
func BestSpeedups(rows []SpeedupRow) map[string]float64 {
	best := map[string]float64{}
	for _, r := range rows {
		if r.Speedup > best[r.App] {
			best[r.App] = r.Speedup
		}
	}
	return best
}

// RenderSummary prints the speedup table.
func RenderSummary(w io.Writer, rows []SpeedupRow) {
	fmt.Fprintln(w, "Summary: speedups over the uncached SC baseline (paper: best combinations reach 4x-7x)")
	byApp := map[string][]SpeedupRow{}
	for _, r := range rows {
		byApp[r.App] = append(byApp[r.App], r)
	}
	for _, app := range AppNames {
		fmt.Fprintf(w, "  %s:\n", app)
		rs := byApp[app]
		sort.SliceStable(rs, func(i, j int) bool { return rs[i].Speedup < rs[j].Speedup })
		for _, r := range rs {
			fmt.Fprintf(w, "    %-16s %5.2fx\n", r.Label, r.Speedup)
		}
	}
}
