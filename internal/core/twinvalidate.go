package core

import (
	"context"
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"latsim/internal/config"
	"latsim/internal/runner"
	"latsim/internal/stats"
	"latsim/internal/twin"
)

// This file holds the analytical twin's two opt-in experiments.
// twin-validate cross-validates the twin against the detailed simulator:
// it sweeps the evaluation's figure/table configuration matrix through
// both — the detailed runs go through the session's job engine, so they
// cache and dedup like any experiment — and reports, per configuration
// and per application, how far the twin's predicted normalized
// execution-time breakdown lands from the measured one. The report
// carries explicit gates, and a violated gate fails the experiment.
// twin-sweep explores the design space the detailed simulator cannot
// afford to and re-verifies only its Pareto frontier in the simulator.

// TwinEntry names one validation configuration.
type TwinEntry struct {
	Label string
	Cfg   config.Config
}

// twinMatrix returns the full validation matrix: every technique
// combination the evaluation's figures and tables exercise, plus the
// PC/WC consistency points from the spectrum ablation. Labels follow the
// figure captions.
func twinMatrix() []TwinEntry {
	base := Base()
	mk := func(label string, f func(*config.Config)) TwinEntry {
		cfg := base
		if f != nil {
			f(&cfg)
		}
		return TwinEntry{Label: label, Cfg: cfg}
	}
	entries := []TwinEntry{
		mk("nocache-SC", func(c *config.Config) { c.CacheShared = false }),
		mk("SC", nil),
		mk("PC", func(c *config.Config) { c.Model = config.PC }),
		mk("WC", func(c *config.Config) { c.Model = config.WC }),
		mk("RC", func(c *config.Config) { c.Model = config.RC }),
		mk("SC+pf", func(c *config.Config) { c.Prefetch = true }),
		mk("RC+pf", func(c *config.Config) { c.Model = config.RC; c.Prefetch = true }),
	}
	ctx := func(label string, mdl config.Consistency, pf bool, n, pen int) TwinEntry {
		return mk(label, func(c *config.Config) {
			c.Model = mdl
			c.Prefetch = pf
			c.Contexts = n
			c.SwitchPenalty = pen
		})
	}
	entries = append(entries,
		ctx("SC-2ctx/sw16", config.SC, false, 2, 16),
		ctx("SC-4ctx/sw16", config.SC, false, 4, 16),
		ctx("SC-2ctx/sw4", config.SC, false, 2, 4),
		ctx("SC-4ctx/sw4", config.SC, false, 4, 4),
		ctx("RC-2ctx/sw4", config.RC, false, 2, 4),
		ctx("RC-4ctx/sw4", config.RC, false, 4, 4),
		ctx("RC+pf-2ctx/sw4", config.RC, true, 2, 4),
		ctx("RC+pf-4ctx/sw4", config.RC, true, 4, 4),
	)
	return entries
}

// TwinReduced returns one representative of each model family of the
// validation matrix (uncached, relaxed consistency, prefetch, contexts,
// and the full combination). cmd/obsdiff's perf gate runs it, and its
// baselines are named after these labels.
func TwinReduced() []TwinEntry {
	keep := map[string]bool{
		"nocache-SC": true, "SC": true, "RC": true,
		"SC+pf": true, "RC+pf": true,
		"SC-4ctx/sw4": true, "RC-4ctx/sw4": true, "RC+pf-4ctx/sw4": true,
	}
	var out []TwinEntry
	for _, e := range twinMatrix() {
		if keep[e.Label] {
			out = append(out, e)
		}
	}
	return out
}

// twinGates are the error thresholds the report is judged against, in
// normalized points (percent of the per-application cached-SC baseline).
type twinGates struct {
	// BucketMAE bounds the matrix-wide mean of the per-configuration
	// mean absolute per-bucket error.
	BucketMAE float64
	// TotalErr bounds the matrix-wide mean absolute error on the
	// normalized total.
	TotalErr float64
}

// defaultTwinGates returns the error contract from DESIGN.md §S-twin:
// mean per-bucket error within 15 normalized points, mean total error
// within 10.
func defaultTwinGates() twinGates { return twinGates{BucketMAE: 15, TotalErr: 10} }

// twinEntryResult compares the twin and the detailed simulator on one
// (application, configuration) point. Truth and Pred are normalized
// breakdowns (percent of the application's cached-SC baseline total).
type twinEntryResult struct {
	App   string
	Label string
	Cfg   string

	Truth      [stats.NumBuckets]float64
	Pred       [stats.NumBuckets]float64
	TruthTotal float64
	PredTotal  float64

	// BucketMAE is the mean over buckets of |Pred-Truth|; TotalErr is
	// |PredTotal-TruthTotal|. Both in normalized points.
	BucketMAE float64
	TotalErr  float64
	// Anchored marks configurations that coincide with a reference run
	// (near-zero error by construction, reported but excluded from no
	// aggregate — the matrix intentionally includes them as sanity
	// anchors).
	Anchored bool
	// TwinNS is the twin's prediction cost for this point in
	// nanoseconds: the median of batchNS.
	TwinNS int64
	// batchNS holds the wall-clock mean cost of one prediction in each
	// of three batches of 64 calls.
	batchNS [3]int64
}

// twinReport is the machine-readable cross-validation result.
type twinReport struct {
	Scale     string
	Generated string
	Gates     twinGates

	Entries []twinEntryResult

	// Matrix-wide aggregates, in normalized points.
	MeanBucketMAE float64
	MaxBucketMAE  float64
	MeanTotalErr  float64
	MaxTotalErr   float64
	// Worst identifies the entry with the largest BucketMAE.
	Worst string

	Pass bool
}

// Check re-evaluates the gates against the aggregates.
func (r *twinReport) Check() bool {
	return r.MeanBucketMAE <= r.Gates.BucketMAE && r.MeanTotalErr <= r.Gates.TotalErr
}

// twinValidate cross-validates the twin on the full matrix: it
// characterizes every application from its reference runs, simulates
// every matrix entry in the detailed simulator, and compares normalized
// breakdowns.
func (s *Session) twinValidate() (*twinReport, error) {
	entries := twinMatrix()
	chars, err := s.CharacterizeAll()
	if err != nil {
		return nil, err
	}
	// Submit the whole truth matrix up front so it simulates in parallel.
	reqs := make([]Request, 0, (len(entries)+1)*len(AppNames))
	for _, app := range AppNames {
		reqs = append(reqs, Request{App: app, Cfg: Base()})
		for _, e := range entries {
			reqs = append(reqs, Request{App: app, Cfg: e.Cfg})
		}
	}
	res, err := s.RunBatch(reqs)
	if err != nil {
		return nil, err
	}

	rep := &twinReport{
		Scale:     s.Scale.String(),
		Generated: time.Now().UTC().Format(time.RFC3339),
		Gates:     defaultTwinGates(),
	}
	for i, app := range AppNames {
		model := twin.New(chars[app])
		appRes := res[i*(len(entries)+1):] // the base run, then every entry
		baseTotal := appRes[0].Breakdown.Total()
		for k, e := range entries {
			truthRes := appRes[1+k]
			pred, batchNS, err := timedPredict(model, e.Cfg)
			if err != nil {
				return nil, fmt.Errorf("twin-validate: %s %s: %w", app, e.Label, err)
			}
			er := twinEntryResult{
				App:      app,
				Label:    e.Label,
				Cfg:      e.Cfg.Name(),
				Truth:    truthRes.Breakdown.Normalized(baseTotal),
				Pred:     pred.Normalized(float64(baseTotal)),
				Anchored: pred.Anchored,
				batchNS:  batchNS,
			}
			er.TwinNS = median(batchNS[:])
			for b := range er.Truth {
				er.TruthTotal += er.Truth[b]
				er.PredTotal += er.Pred[b]
				er.BucketMAE += math.Abs(er.Pred[b] - er.Truth[b])
			}
			er.BucketMAE /= float64(stats.NumBuckets)
			er.TotalErr = math.Abs(er.PredTotal - er.TruthTotal)
			rep.Entries = append(rep.Entries, er)
		}
	}
	for _, er := range rep.Entries {
		rep.MeanBucketMAE += er.BucketMAE
		rep.MeanTotalErr += er.TotalErr
		if er.BucketMAE > rep.MaxBucketMAE {
			rep.MaxBucketMAE = er.BucketMAE
			rep.Worst = er.App + "/" + er.Label
		}
		if er.TotalErr > rep.MaxTotalErr {
			rep.MaxTotalErr = er.TotalErr
		}
	}
	n := float64(len(rep.Entries))
	rep.MeanBucketMAE /= n
	rep.MeanTotalErr /= n
	rep.Pass = rep.Check()
	return rep, nil
}

// timedPredict evaluates the model once for correctness and then times
// three batches of 64 calls for the speedup accounting, returning each
// batch's mean cost per call.
func timedPredict(m *twin.Model, cfg config.Config) (*twin.Prediction, [3]int64, error) {
	var means [3]int64
	pred, err := m.Predict(cfg)
	if err != nil {
		return nil, means, err
	}
	const batch = 64
	for round := range means {
		start := time.Now()
		for i := 0; i < batch; i++ {
			if _, err := m.Predict(cfg); err != nil {
				return nil, means, err
			}
		}
		means[round] = time.Since(start).Nanoseconds() / batch
	}
	return pred, means, nil
}

// median sorts xs and returns its middle element (the upper one of an
// even count).
func median(xs []int64) int64 {
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	return xs[len(xs)/2]
}

// twinBenchRounds is how many times the speed record runs the three
// base simulations.
const twinBenchRounds = 3

// twinBench is the speed side of the twin's contract: the cost of one
// twin prediction against one detailed simulation.
type twinBench struct {
	// TwinNSPerConfig is the median wall-clock cost of one Predict call:
	// the median of the batch means of every matrix entry (three batches
	// of 64 calls each), so both sides of Speedup are medians.
	TwinNSPerConfig int64
	// SimNSPerConfig is the median wall-clock cost of one detailed
	// simulation over SimRuns samples: core.Exec on each application's
	// cached-SC base job in sequence, for twinBenchRounds rounds.
	// SimNSMin and SimNSMax are the fastest and slowest sample.
	SimNSPerConfig int64
	SimNSMin       int64
	SimNSMax       int64
	SimRuns        int
	Speedup        float64
}

// twinBenchFrom derives the speed record from a finished report. It times
// fresh simulations outside the session's job engine, so the record is
// the same measurement whatever the session's cache holds.
func (s *Session) twinBenchFrom(rep *twinReport) (*twinBench, error) {
	b := &twinBench{}
	var batches []int64
	for _, er := range rep.Entries {
		batches = append(batches, er.batchNS[:]...)
	}
	if len(batches) > 0 {
		b.TwinNSPerConfig = median(batches)
	}
	var samples []int64
	for round := 0; round < twinBenchRounds; round++ {
		for _, app := range AppNames {
			j := runner.Job{App: app, Scale: s.Scale.String(), Seed: s.Seed, Cfg: Base()}
			start := time.Now()
			if _, err := Exec(context.Background(), j); err != nil {
				return nil, err
			}
			samples = append(samples, time.Since(start).Nanoseconds())
		}
	}
	b.SimRuns = len(samples)
	b.SimNSPerConfig = median(samples)
	b.SimNSMin, b.SimNSMax = samples[0], samples[len(samples)-1]
	if b.TwinNSPerConfig > 0 {
		b.Speedup = float64(b.SimNSPerConfig) / float64(b.TwinNSPerConfig)
	}
	return b, nil
}

// Render prints the report as a fixed-width table, one row per matrix
// entry, grouped by application.
func (r *twinReport) Render(w io.Writer) {
	fmt.Fprintf(w, "twin cross-validation: full matrix, %s scale (%d points)\n", r.Scale, len(r.Entries))
	app := ""
	for _, er := range r.Entries {
		if er.App != app {
			app = er.App
			fmt.Fprintf(w, "  %s\n", app)
			fmt.Fprintf(w, "    %-18s %10s %10s %10s %10s  %s\n",
				"configuration", "sim total", "twin total", "total err", "bucketMAE", "")
		}
		tag := ""
		if er.Anchored {
			tag = "anchor"
		}
		fmt.Fprintf(w, "    %-18s %10.1f %10.1f %10.2f %10.2f  %s\n",
			er.Label, er.TruthTotal, er.PredTotal, er.TotalErr, er.BucketMAE, tag)
	}
	status := "PASS"
	if !r.Pass {
		status = "FAIL"
	}
	fmt.Fprintf(w, "  mean bucket MAE %.2f (gate %.0f), mean total err %.2f (gate %.0f), worst %s (%.2f) — %s\n",
		r.MeanBucketMAE, r.Gates.BucketMAE, r.MeanTotalErr, r.Gates.TotalErr,
		r.Worst, r.MaxBucketMAE, status)
}

// renderTwinValidate writes the cross-validation table, or with opt.JSON
// the BENCH_twin.json document: the report and the speed record. A
// report that violates the error contract fails the experiment once its
// output is written.
func (s *Session) renderTwinValidate(w io.Writer, opt *RenderOptions) error {
	rep, err := s.twinValidate()
	if err != nil {
		return err
	}
	if opt.JSON {
		bench, err := s.twinBenchFrom(rep)
		if err != nil {
			return err
		}
		if err := writeJSON(w, struct {
			Description string
			Command     string
			Report      *twinReport
			Bench       *twinBench
		}{
			Description: "Analytical twin (internal/twin) vs detailed simulator over the full " +
				"cross-validation matrix: the per-entry error report, and the wall-clock cost " +
				"of one prediction vs one simulation of the same configuration.",
			Command: "go run ./cmd/figures -exp twin-validate -json > BENCH_twin.json",
			Report:  rep,
			Bench:   bench,
		}); err != nil {
			return err
		}
	} else {
		rep.Render(w)
	}
	if !rep.Pass {
		return fmt.Errorf("twin error gates violated (bucket MAE %.2f > %.0f or total err %.2f > %.0f)",
			rep.MeanBucketMAE, rep.Gates.BucketMAE, rep.MeanTotalErr, rep.Gates.TotalErr)
	}
	return nil
}

// The sweep crosses every consistency model with prefetching, context
// counts and switch penalties, write-buffer depths, write-pipelining
// widths and network wire speeds. The twin evaluates the whole grid in
// milliseconds; only the Pareto frontier — the configurations where no
// cheaper design is also faster — goes back to the detailed simulator
// for verification.

// sweepPoint is one explored design point.
type sweepPoint struct {
	Name string
	Cfg  config.Config
	// Cost is the relative hardware-cost score (see costOf).
	Cost float64
	// MeanTotal is the twin-predicted normalized execution time
	// (percent of each application's cached-SC baseline), averaged over
	// the benchmarks. Lower is faster.
	MeanTotal float64
}

// sweepVerification compares twin and detailed simulator on one frontier
// point.
type sweepVerification struct {
	Name      string
	Cost      float64
	PredMean  float64
	SimMean   float64
	TotalErr  float64 // |PredMean-SimMean| in normalized points
	PerApp    map[string]float64
	PerAppSim map[string]float64
}

// sweepReport is the machine-readable sweep result.
type sweepReport struct {
	Scale     string
	Generated string
	// Explored counts distinct configurations evaluated analytically;
	// TwinWallNS is the total wall-clock cost of evaluating all of them
	// (all applications).
	Explored   int
	TwinWallNS int64
	// Frontier is the Pareto frontier over (Cost, MeanTotal), cheapest
	// first. Verified holds the detailed-simulator check of the
	// frontier (capped at sweepVerifyCap points).
	Frontier []sweepPoint
	Verified []sweepVerification
	// MeanFrontierErr is the mean |twin-sim| total error over the
	// verified frontier, in normalized points.
	MeanFrontierErr float64
}

// sweepVerifyCap bounds how many frontier points the sweep re-simulates.
const sweepVerifyCap = 12

// sweepSpace enumerates the design grid: 4 models x prefetch x {1 ctx,
// 2/4 ctx x penalty 4/16} x 3 write-buffer depths x 4 write-pipelining
// widths x 3 wire speeds = 1440 configurations, all cached (prefetching
// requires coherent caches, and the uncached design needs none of the
// swept hardware).
func sweepSpace() []sweepPoint {
	var out []sweepPoint
	base := Base()
	for _, mdl := range []config.Consistency{config.SC, config.PC, config.WC, config.RC} {
		for _, pf := range []bool{false, true} {
			for _, cp := range [][2]int{{1, base.SwitchPenalty}, {2, 4}, {2, 16}, {4, 4}, {4, 16}} {
				for _, wbd := range []int{8, 16, 32} {
					for _, mshr := range []int{1, 2, 4, 8} {
						for _, wire := range []int{8, 15, 30} {
							cfg := base
							cfg.Model = mdl
							cfg.Prefetch = pf
							cfg.Contexts = cp[0]
							if cp[0] > 1 {
								cfg.SwitchPenalty = cp[1]
							}
							cfg.WriteBufferDepth = wbd
							cfg.MaxOutstandingWrites = mshr
							cfg.Lat.Wire = wire
							out = append(out, sweepPoint{
								Name: fmt.Sprintf("%s wbd=%d mshr=%d wire=%d", cfg.Name(), wbd, mshr, wire),
								Cfg:  cfg,
								Cost: costOf(&cfg),
							})
						}
					}
				}
			}
		}
	}
	return out
}

// costOf scores a configuration's relative hardware cost. The weights
// are a coarse board-area heuristic, documented in DESIGN.md §S-twin:
// replicated register state per extra context dominates (4 each),
// buffered-consistency ack hardware and faster network wires cost a few
// units, buffer depth and write MSHRs scale logarithmically.
func costOf(cfg *config.Config) float64 {
	cost := 4 * float64(cfg.Contexts-1)
	cost += math.Log2(float64(cfg.WriteBufferDepth) / 8)
	cost += math.Log2(float64(cfg.MaxOutstandingWrites))
	if cfg.Model.Buffered() {
		cost += 2
	}
	if cfg.Prefetch {
		cost++
	}
	switch {
	case cfg.Lat.Wire <= 8:
		cost += 4
	case cfg.Lat.Wire <= 15:
		cost += 2
	}
	return cost
}

// twinSweep explores the design grid analytically and verifies the
// Pareto frontier with the detailed simulator. The session provides both
// the characterization reference runs and the frontier verification
// runs.
func (s *Session) twinSweep() (*sweepReport, error) {
	chars, err := s.CharacterizeAll()
	if err != nil {
		return nil, err
	}
	models := make(map[string]*twin.Model, len(chars))
	baseTotals := make(map[string]float64, len(chars))
	for _, app := range AppNames {
		models[app] = twin.New(chars[app])
		baseRes, err := s.Run(app, Base())
		if err != nil {
			return nil, err
		}
		baseTotals[app] = float64(baseRes.Breakdown.Total())
	}

	points := sweepSpace()
	rep := &sweepReport{
		Scale:     s.Scale.String(),
		Generated: time.Now().UTC().Format(time.RFC3339),
		Explored:  len(points),
	}
	start := time.Now()
	for i := range points {
		var sum float64
		for _, app := range AppNames {
			pred, err := models[app].Predict(points[i].Cfg)
			if err != nil {
				return nil, fmt.Errorf("twin-sweep: %s: %w", points[i].Name, err)
			}
			sum += 100 * pred.Total / baseTotals[app]
		}
		points[i].MeanTotal = sum / float64(len(AppNames))
	}
	rep.TwinWallNS = time.Since(start).Nanoseconds()

	rep.Frontier = paretoFrontier(points)

	// Verify the frontier in the detailed simulator, cheapest first.
	verify := rep.Frontier
	if len(verify) > sweepVerifyCap {
		verify = verify[:sweepVerifyCap]
	}
	var reqs []Request
	for _, p := range verify {
		for _, app := range AppNames {
			reqs = append(reqs, Request{App: app, Cfg: p.Cfg})
		}
	}
	res, err := s.RunBatch(reqs)
	if err != nil {
		return nil, err
	}
	for i, p := range verify {
		v := sweepVerification{
			Name: p.Name, Cost: p.Cost, PredMean: p.MeanTotal,
			PerApp:    map[string]float64{},
			PerAppSim: map[string]float64{},
		}
		for k, app := range AppNames {
			pred, err := models[app].Predict(p.Cfg)
			if err != nil {
				return nil, err
			}
			simTot := 100 * float64(res[i*len(AppNames)+k].Breakdown.Total()) / baseTotals[app]
			v.PerApp[app] = 100 * pred.Total / baseTotals[app]
			v.PerAppSim[app] = simTot
			v.SimMean += simTot / float64(len(AppNames))
		}
		v.TotalErr = math.Abs(v.PredMean - v.SimMean)
		rep.Verified = append(rep.Verified, v)
		rep.MeanFrontierErr += v.TotalErr
	}
	if len(rep.Verified) > 0 {
		rep.MeanFrontierErr /= float64(len(rep.Verified))
	}
	return rep, nil
}

// paretoFrontier keeps the points not dominated on (Cost, MeanTotal):
// walking by ascending cost, a point joins the frontier only if it is
// strictly faster than everything cheaper.
func paretoFrontier(points []sweepPoint) []sweepPoint {
	sorted := append([]sweepPoint(nil), points...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Cost != sorted[j].Cost {
			return sorted[i].Cost < sorted[j].Cost
		}
		if sorted[i].MeanTotal != sorted[j].MeanTotal {
			return sorted[i].MeanTotal < sorted[j].MeanTotal
		}
		return sorted[i].Name < sorted[j].Name
	})
	var out []sweepPoint
	best := math.Inf(1)
	for _, p := range sorted {
		if p.MeanTotal < best {
			out = append(out, p)
			best = p.MeanTotal
		}
	}
	return out
}

// Render prints the sweep summary.
func (r *sweepReport) Render(w io.Writer) {
	fmt.Fprintf(w, "design-space sweep: %d configurations explored analytically in %.1fms (%s scale)\n",
		r.Explored, float64(r.TwinWallNS)/1e6, r.Scale)
	fmt.Fprintf(w, "Pareto frontier (%d points, %d verified in the detailed simulator):\n",
		len(r.Frontier), len(r.Verified))
	fmt.Fprintf(w, "  %-40s %6s %10s %10s %9s\n", "configuration", "cost", "twin mean", "sim mean", "err")
	verified := map[string]sweepVerification{}
	for _, v := range r.Verified {
		verified[v.Name] = v
	}
	for _, p := range r.Frontier {
		if v, ok := verified[p.Name]; ok {
			fmt.Fprintf(w, "  %-40s %6.1f %10.1f %10.1f %9.2f\n", p.Name, p.Cost, v.PredMean, v.SimMean, v.TotalErr)
		} else {
			fmt.Fprintf(w, "  %-40s %6.1f %10.1f %10s %9s\n", p.Name, p.Cost, p.MeanTotal, "-", "-")
		}
	}
	fmt.Fprintf(w, "mean frontier error %.2f normalized points\n", r.MeanFrontierErr)
}

// renderTwinSweep writes the sweep summary, or with opt.JSON the sweep
// report.
func (s *Session) renderTwinSweep(w io.Writer, opt *RenderOptions) error {
	rep, err := s.twinSweep()
	if err != nil {
		return err
	}
	if opt.JSON {
		return writeJSON(w, rep)
	}
	rep.Render(w)
	return nil
}
