// Experiments-as-a-library: every experiment id cmd/figures accepts is
// enumerated, expandable to its simulation requests, and renderable
// here, so any front end — the CLI, tests, the sweep service's HTTP API
// — produces identical bytes from one code path. The sweep service
// leans on all three pieces: the registry to validate untrusted ids,
// ExperimentRequests to submit a sweep's jobs individually (per-job
// status and cancellation), and RunExperiment to assemble the final
// artifact from the memoized results.
package core

import (
	"fmt"
	"io"
	"strings"

	"latsim/internal/config"
	"latsim/internal/twin"
)

// ExperimentIDs lists every experiment id "all" runs, in the canonical
// order.
var ExperimentIDs = []string{"table1", "table2", "hitrates", "fig2", "fig3", "fig4", "fig5", "fig6",
	"summary", "coverage", "fullcache", "spectrum", "scaling", "analytic", "ablations"}

// ExtraExperimentIDs are opt-in ids that "all" deliberately excludes:
// dirscale simulates up to 1024 processors, and the -exp all output is
// a byte-identity regression gate that must not change when opt-in
// experiments are added.
var ExtraExperimentIDs = []string{"dirscale"}

// KnownExperiment reports whether id names an experiment ("all" is not
// an experiment; front ends expand it over ExperimentIDs).
func KnownExperiment(id string) bool {
	for _, e := range ExperimentIDs {
		if e == id {
			return true
		}
	}
	for _, e := range ExtraExperimentIDs {
		if e == id {
			return true
		}
	}
	return false
}

// unknownExperiment renders the canonical bad-id error.
func unknownExperiment(id string) error {
	return fmt.Errorf("unknown experiment %q (valid: all, %s, %s)",
		id, strings.Join(ExperimentIDs, ", "), strings.Join(ExtraExperimentIDs, ", "))
}

// ---- Per-experiment configuration sets ----
//
// Each figure/sweep function warms exactly these sets before assembling
// its output, and ExperimentRequests exposes them to schedulers that
// want to run the underlying simulations as individually tracked jobs.

func fig2Configs() []config.Config {
	nocache := Base()
	nocache.CacheShared = false
	return []config.Config{nocache, Base()}
}

func fig3Configs() []config.Config {
	rcCfg := Base()
	rcCfg.Model = config.RC
	return []config.Config{Base(), rcCfg}
}

func fig4Configs() []config.Config {
	var cfgs []config.Config
	for _, mdl := range []config.Consistency{config.SC, config.RC} {
		for _, pf := range []bool{false, true} {
			cfg := Base()
			cfg.Model = mdl
			cfg.Prefetch = pf
			cfgs = append(cfgs, cfg)
		}
	}
	return cfgs
}

func fig5Configs() []config.Config {
	cfgs := []config.Config{Base()}
	for _, pen := range []int{16, 4} {
		for _, ctxs := range []int{2, 4} {
			cfg := Base()
			cfg.Contexts = ctxs
			cfg.SwitchPenalty = pen
			cfgs = append(cfgs, cfg)
		}
	}
	return cfgs
}

// fig6Groups are Figure 6's technique combinations in render order.
type fig6Group struct {
	mdl config.Consistency
	pf  bool
	tag string
}

func fig6Groups() []fig6Group {
	return []fig6Group{
		{config.SC, false, "SC"},
		{config.RC, false, "RC"},
		{config.RC, true, "RC+pf"},
	}
}

func fig6Configs() []config.Config {
	var cfgs []config.Config
	for _, g := range fig6Groups() {
		for _, ctxs := range []int{1, 2, 4} {
			cfg := Base()
			cfg.Model = g.mdl
			cfg.Prefetch = g.pf
			cfg.Contexts = ctxs
			cfg.SwitchPenalty = 4
			cfgs = append(cfgs, cfg)
		}
	}
	return cfgs
}

func spectrumConfigs() []config.Config {
	var cfgs []config.Config
	for _, mdl := range []config.Consistency{config.SC, config.PC, config.WC, config.RC} {
		cfg := Base()
		cfg.Model = mdl
		cfgs = append(cfgs, cfg)
	}
	return cfgs
}

func scalingConfigs() []config.Config {
	var cfgs []config.Config
	for _, procs := range []int{4, 8, 16, 32} {
		cfg := Base()
		cfg.Procs = procs
		cfgs = append(cfgs, cfg)
	}
	return cfgs
}

func coverageConfigs() []config.Config {
	cfg := Base()
	cfg.Model = config.RC
	pfCfg := cfg
	pfCfg.Prefetch = true
	return []config.Config{cfg, pfCfg}
}

func analyticConfigs() []config.Config {
	cfgs := []config.Config{Base()}
	for _, ctxs := range []int{1, 2, 4} {
		cfg := Base()
		cfg.Contexts = ctxs
		cfg.SwitchPenalty = 4
		cfgs = append(cfgs, cfg)
	}
	return cfgs
}

func summaryConfigs() []config.Config {
	nocache := Base()
	nocache.CacheShared = false
	rcCfg := Base()
	rcCfg.Model = config.RC
	pfCfg := rcCfg
	pfCfg.Prefetch = true
	mcCfg := rcCfg
	mcCfg.Contexts = 4
	mcCfg.SwitchPenalty = 4
	return []config.Config{nocache, Base(), rcCfg, pfCfg, mcCfg}
}

func dirScaleConfigs() []config.Config {
	var cfgs []config.Config
	for _, procs := range DirScaleProcs {
		for _, org := range dirScaleOrgs() {
			cfg := Base()
			cfg.Procs = procs
			cfg.DirOrg = org
			cfgs = append(cfgs, cfg)
		}
	}
	return cfgs
}

// allApps crosses every benchmark with every configuration.
func allApps(cfgs []config.Config) []Request {
	reqs := make([]Request, 0, len(AppNames)*len(cfgs))
	for _, app := range AppNames {
		for _, cfg := range cfgs {
			reqs = append(reqs, Request{App: app, Cfg: cfg})
		}
	}
	return reqs
}

// ExperimentRequests returns the simulation requests the experiment is
// known to need ahead of render time, so a control plane can run them
// as individually tracked jobs (per-job status and cancellation) and
// let RunExperiment assemble the output from the memoized results.
// Some experiments (table1's latency probes, the ablation sweeps whose
// configuration sets live in their closures) return no requests; they
// still execute through the session's engine — with dedup and caching —
// but only at render time. Unknown ids error.
func (s *Session) ExperimentRequests(id string) ([]Request, error) {
	switch id {
	case "table2", "hitrates":
		return allApps([]config.Config{Base()}), nil
	case "fig2":
		return allApps(fig2Configs()), nil
	case "fig3":
		return allApps(fig3Configs()), nil
	case "fig4":
		return allApps(fig4Configs()), nil
	case "fig5":
		return allApps(fig5Configs()), nil
	case "fig6":
		return allApps(fig6Configs()), nil
	case "summary":
		return allApps(summaryConfigs()), nil
	case "coverage":
		return allApps(coverageConfigs()), nil
	case "spectrum":
		return allApps(spectrumConfigs()), nil
	case "scaling":
		return allApps(scalingConfigs()), nil
	case "analytic":
		return allApps(analyticConfigs()), nil
	case "dirscale":
		cfgs := dirScaleConfigs()
		reqs := make([]Request, 0, len(cfgs))
		for _, cfg := range cfgs {
			reqs = append(reqs, Request{App: "LU", Cfg: cfg})
		}
		return reqs, nil
	case "table1", "fullcache", "ablations":
		return nil, nil
	}
	return nil, unknownExperiment(id)
}

// RenderOptions tune RunExperiment's output. The zero value (or nil)
// is the canonical plain rendering — the byte-identity reference every
// front end agrees on.
type RenderOptions struct {
	// JSON emits figures (and the dirscale sweep) as JSON documents
	// instead of tables.
	JSON bool
	// Bars renders figures as stacked bar charts of BarWidth columns
	// (0 = 60).
	Bars     bool
	BarWidth int
	// Twin, when non-nil, overlays the analytical twin's predicted
	// totals on figures (plain renderer only). It is called lazily, at
	// most once per figure render, so characterization runs only touch
	// experiments that draw figures.
	Twin func() (map[string]*twin.AppChar, error)
	// Obs, when non-nil, receives every rendered figure before output —
	// the hook cmd/figures uses to write per-bar observability
	// artifacts.
	Obs func(*Figure) error
}

// renderFigure applies the option set to one figure.
func (s *Session) renderFigure(w io.Writer, f *Figure, opt *RenderOptions) error {
	if opt.Obs != nil {
		if err := opt.Obs(f); err != nil {
			return err
		}
	}
	if opt.JSON {
		b, err := f.JSON()
		if err != nil {
			return err
		}
		w.Write(b)
		fmt.Fprintln(w)
		return nil
	}
	if opt.Bars {
		width := opt.BarWidth
		if width <= 0 {
			width = 60
		}
		f.RenderBars(w, width)
		return nil
	}
	if opt.Twin != nil {
		chars, err := opt.Twin()
		if err != nil {
			return err
		}
		f.RenderTwin(w, chars)
		return nil
	}
	f.Render(w)
	return nil
}

// RunExperiment executes the named experiment end to end and writes its
// rendering to w. With nil (or zero) options the output is the
// canonical plain format: byte-for-byte what `cmd/figures -exp <id>`
// prints for the experiment (minus the blank separator line the CLI
// appends between experiments). All simulations go through the
// session's engine, so results dedup, cache and parallelize exactly as
// they do for any other caller.
func (s *Session) RunExperiment(w io.Writer, id string, opt *RenderOptions) error {
	if opt == nil {
		opt = &RenderOptions{}
	}
	figure := func(f *Figure, err error) error {
		if err != nil {
			return err
		}
		return s.renderFigure(w, f, opt)
	}
	switch id {
	case "table1":
		rows, err := Table1()
		if err != nil {
			return err
		}
		RenderTable1(w, rows)
	case "table2":
		rows, err := s.Table2()
		if err != nil {
			return err
		}
		RenderTable2(w, rows)
	case "fig2":
		return figure(s.Figure2())
	case "fig3":
		return figure(s.Figure3())
	case "fig4":
		return figure(s.Figure4())
	case "fig5":
		return figure(s.Figure5())
	case "fig6":
		return figure(s.Figure6())
	case "hitrates":
		rows, err := s.HitRates()
		if err != nil {
			return err
		}
		RenderHitRates(w, rows)
	case "summary":
		rows, err := s.Summary()
		if err != nil {
			return err
		}
		RenderSummary(w, rows)
	case "fullcache":
		a, err := s.FullCacheAblation()
		if err != nil {
			return err
		}
		a.Render(w)
	case "ablations":
		for _, fn := range []func() (*Ablation, error){
			s.WriteBufferAblation, s.SwitchPenaltyAblation,
			s.NetworkAblation, s.PipeliningAblation,
			s.AssociativityAblation, s.ExclusiveGrantAblation, s.MeshAblation,
		} {
			a, err := fn()
			if err != nil {
				return err
			}
			a.Render(w)
			fmt.Fprintln(w)
		}
	case "spectrum":
		return figure(s.ConsistencySpectrum())
	case "scaling":
		pts, err := s.ScalingSweep()
		if err != nil {
			return err
		}
		RenderScaling(w, pts)
	case "coverage":
		rows, err := s.PrefetchCoverage()
		if err != nil {
			return err
		}
		RenderCoverage(w, rows)
	case "analytic":
		pts, err := s.AnalyticContexts()
		if err != nil {
			return err
		}
		RenderAnalytic(w, pts)
	case "dirscale":
		pts, err := s.DirScaleSweep()
		if err != nil {
			return err
		}
		if opt.JSON {
			b, err := DirScaleJSON(pts)
			if err != nil {
				return err
			}
			w.Write(b)
			fmt.Fprintln(w)
		} else {
			RenderDirScale(w, pts)
		}
	default:
		return unknownExperiment(id)
	}
	return nil
}
