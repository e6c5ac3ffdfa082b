// Experiments-as-a-library: every experiment id cmd/figures accepts is
// declared once, in the ordered experiments table below. An entry says
// how the experiment runs and renders its simulations, and every front
// end reads the table: the CLI's -exp ids and help, and the tests. Each
// experiment runs its simulations as one batch and builds its output
// from that batch's results, so any front end produces identical bytes
// from one code path.
package core

import (
	"fmt"
	"io"
	"strings"

	"latsim/internal/config"
	"latsim/internal/twin"
)

// experiment is one entry of the experiment table.
type experiment struct {
	id string
	// optIn excludes the experiment from "all" (see ExtraExperimentIDs).
	optIn bool
	// render runs the experiment's batch and writes its output.
	render func(s *Session, w io.Writer, opt *RenderOptions) error
	// figure declares a figure experiment's bars (nil for the others).
	figure func() figureSpec
}

// experiments lists every experiment in the canonical order. Entries
// build their configuration lists on demand and never hold one: a
// package-level list would sit on the heap of every program that
// imports core.
var experiments = []experiment{
	{id: "table1", render: rows(func(*Session) ([]Table1Row, error) { return Table1() }, RenderTable1)},
	{id: "table2", render: rows((*Session).Table2, RenderTable2)},
	{id: "hitrates", render: rows((*Session).HitRates, RenderHitRates)},
	figureExperiment("fig2", fig2),
	figureExperiment("fig3", fig3),
	figureExperiment("fig4", fig4),
	figureExperiment("fig5", fig5),
	figureExperiment("fig6", fig6),
	{id: "summary", render: rows((*Session).Summary, RenderSummary)},
	{id: "coverage", render: rows((*Session).PrefetchCoverage, RenderCoverage)},
	ablationExperiment("fullcache", fullCacheAblations, ""),
	figureExperiment("spectrum", spectrum),
	{id: "scaling", render: rows((*Session).ScalingSweep, RenderScaling)},
	{id: "analytic", render: rows((*Session).AnalyticContexts, RenderAnalytic)},
	ablationExperiment("ablations", designAblations, "\n"),
	{id: "dirscale", optIn: true, render: (*Session).renderDirScale},
	{id: "twin-validate", optIn: true, render: (*Session).renderTwinValidate},
	{id: "twin-sweep", optIn: true, render: (*Session).renderTwinSweep},
}

// ExperimentIDs lists every experiment id "all" runs, in the canonical
// order.
var ExperimentIDs = experimentIDs(false)

// ExtraExperimentIDs are opt-in ids that "all" deliberately excludes:
// dirscale simulates up to 1024 processors, the twin experiments report
// wall-clock timings, and the -exp all output is a byte-identity
// regression gate that must not change when opt-in experiments are
// added.
var ExtraExperimentIDs = experimentIDs(true)

func experimentIDs(optIn bool) []string {
	var ids []string
	for _, e := range experiments {
		if e.optIn == optIn {
			ids = append(ids, e.id)
		}
	}
	return ids
}

// lookupExperiment returns id's table entry, or the canonical bad-id
// error.
func lookupExperiment(id string) (*experiment, error) {
	for i := range experiments {
		if experiments[i].id == id {
			return &experiments[i], nil
		}
	}
	return nil, fmt.Errorf("unknown experiment %q (valid: all, %s, %s)",
		id, strings.Join(ExperimentIDs, ", "), strings.Join(ExtraExperimentIDs, ", "))
}

// requests crosses apps with configurations, app-major: the order of
// every experiment's batch.
func requests(apps []string, cfgs []config.Config) []Request {
	reqs := make([]Request, 0, len(apps)*len(cfgs))
	for _, app := range apps {
		for _, cfg := range cfgs {
			reqs = append(reqs, Request{App: app, Cfg: cfg})
		}
	}
	return reqs
}

// baseOnly is the configuration list of the experiments that read the
// base machine alone.
func baseOnly() []config.Config { return []config.Config{Base()} }

// rows declares the render of an experiment that builds a value and
// prints it with one renderer.
func rows[T any](build func(*Session) (T, error), render func(io.Writer, T)) func(*Session, io.Writer, *RenderOptions) error {
	return func(s *Session, w io.Writer, _ *RenderOptions) error {
		v, err := build(s)
		if err != nil {
			return err
		}
		render(w, v)
		return nil
	}
}

// figureExperiment declares a normalized-breakdown figure: every bar on
// every benchmark.
func figureExperiment(id string, spec func() figureSpec) experiment {
	return experiment{
		id:     id,
		figure: spec,
		render: func(s *Session, w io.Writer, opt *RenderOptions) error {
			return s.renderFigure(w, spec(), opt)
		},
	}
}

// Figure runs a figure experiment (fig2 to fig6, or spectrum) as one
// batch: every bar on every benchmark, normalized to the benchmark's
// first bar.
func (s *Session) Figure(id string) (*Figure, error) {
	e, err := lookupExperiment(id)
	if err != nil {
		return nil, err
	}
	if e.figure == nil {
		return nil, fmt.Errorf("core: experiment %q is not a figure", id)
	}
	return s.figure(e.figure())
}

// RenderOptions tune RunExperiment's output. The zero value (or nil)
// is the canonical plain rendering — the byte-identity reference every
// front end agrees on.
type RenderOptions struct {
	// JSON emits figures (and the opt-in experiments) as JSON documents
	// instead of tables.
	JSON bool
	// Bars renders figures as stacked bar charts.
	Bars bool
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

// barChartWidth is the width of a bar chart's 100% bar, in characters.
const barChartWidth = 60

// renderFigure runs the figure spec declares and writes it as opt asks.
func (s *Session) renderFigure(w io.Writer, spec figureSpec, opt *RenderOptions) error {
	f, err := s.figure(spec)
	if err != nil {
		return err
	}
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
		w.Write(append(b, '\n'))
		return nil
	}
	if opt.Bars {
		f.RenderBars(w, barChartWidth)
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
	e, err := lookupExperiment(id)
	if err != nil {
		return err
	}
	if opt == nil {
		opt = &RenderOptions{}
	}
	return e.render(s, w, opt)
}
