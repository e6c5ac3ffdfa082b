// Package validate cross-validates the analytical twin against the
// detailed simulator. It sweeps the evaluation's figure/table
// configuration matrix through both — the detailed runs go through the
// session's job engine, so they cache and dedup like any experiment —
// and reports, per configuration and per application, how far the twin's
// predicted normalized execution-time breakdown lands from the measured
// one. The report is machine readable (JSON) and carries explicit gates
// so CI can fail a change that breaks the model's error contract.
package validate

import (
	"fmt"
	"math"
	"sort"
	"time"

	"latsim/internal/config"
	"latsim/internal/core"
	"latsim/internal/stats"
	"latsim/internal/twin"
)

// Entry names one validation configuration.
type Entry struct {
	Label string
	Cfg   config.Config
}

// Matrix returns the full validation matrix: every technique combination
// the evaluation's figures and tables exercise, plus the PC/WC
// consistency points from the spectrum ablation. Labels follow the
// figure captions.
func Matrix() []Entry {
	base := core.Base()
	mk := func(label string, f func(*config.Config)) Entry {
		cfg := base
		if f != nil {
			f(&cfg)
		}
		return Entry{Label: label, Cfg: cfg}
	}
	entries := []Entry{
		mk("nocache-SC", func(c *config.Config) { c.CacheShared = false }),
		mk("SC", nil),
		mk("PC", func(c *config.Config) { c.Model = config.PC }),
		mk("WC", func(c *config.Config) { c.Model = config.WC }),
		mk("RC", func(c *config.Config) { c.Model = config.RC }),
		mk("SC+pf", func(c *config.Config) { c.Prefetch = true }),
		mk("RC+pf", func(c *config.Config) { c.Model = config.RC; c.Prefetch = true }),
	}
	ctx := func(label string, mdl config.Consistency, pf bool, n, pen int) Entry {
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

// Reduced returns the CI subset of the matrix: one representative of
// each model family (uncached, relaxed consistency, prefetch, contexts,
// and the full combination) so the gate runs in minutes, not hours.
func Reduced() []Entry {
	keep := map[string]bool{
		"nocache-SC": true, "SC": true, "RC": true,
		"SC+pf": true, "RC+pf": true,
		"SC-4ctx/sw4": true, "RC-4ctx/sw4": true, "RC+pf-4ctx/sw4": true,
	}
	var out []Entry
	for _, e := range Matrix() {
		if keep[e.Label] {
			out = append(out, e)
		}
	}
	return out
}

// Gates are the error thresholds the report is judged against, in
// normalized points (percent of the per-application cached-SC baseline).
type Gates struct {
	// BucketMAE bounds the matrix-wide mean of the per-configuration
	// mean absolute per-bucket error.
	BucketMAE float64
	// TotalErr bounds the matrix-wide mean absolute error on the
	// normalized total.
	TotalErr float64
}

// DefaultGates returns the error contract from DESIGN.md §S-twin:
// mean per-bucket error within 15 normalized points, mean total error
// within 10.
func DefaultGates() Gates { return Gates{BucketMAE: 15, TotalErr: 10} }

// EntryResult compares the twin and the detailed simulator on one
// (application, configuration) point. Truth and Pred are normalized
// breakdowns (percent of the application's cached-SC baseline total).
type EntryResult struct {
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
	// nanoseconds (wall clock, best of three).
	TwinNS int64
}

// Report is the machine-readable cross-validation result.
type Report struct {
	Scale     string
	Matrix    string
	Generated string
	Gates     Gates

	Entries []EntryResult

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
func (r *Report) Check() bool {
	return r.MeanBucketMAE <= r.Gates.BucketMAE && r.MeanTotalErr <= r.Gates.TotalErr
}

// Run cross-validates the twin on the given matrix: characterizes every
// application from its reference runs, simulates every matrix entry in
// the detailed simulator (through the session's cached job engine), and
// compares normalized breakdowns. The name tags the report ("full",
// "reduced", ...).
func Run(s *core.Session, name string, entries []Entry) (*Report, error) {
	if len(entries) == 0 {
		return nil, fmt.Errorf("validate: empty matrix")
	}
	chars, err := s.CharacterizeAll()
	if err != nil {
		return nil, err
	}
	// Submit the whole truth matrix up front so it simulates in parallel.
	reqs := make([]core.Request, 0, (len(entries)+1)*len(core.AppNames))
	for _, app := range core.AppNames {
		reqs = append(reqs, core.Request{App: app, Cfg: core.Base()})
		for _, e := range entries {
			reqs = append(reqs, core.Request{App: app, Cfg: e.Cfg})
		}
	}
	res, err := s.RunBatch(reqs)
	if err != nil {
		return nil, err
	}

	rep := &Report{
		Scale:     s.Scale.String(),
		Matrix:    name,
		Generated: time.Now().UTC().Format(time.RFC3339),
		Gates:     DefaultGates(),
	}
	for i, app := range core.AppNames {
		model := twin.New(chars[app])
		appRes := res[i*(len(entries)+1):] // the base run, then every entry
		baseTotal := appRes[0].Breakdown.Total()
		for k, e := range entries {
			truthRes := appRes[1+k]
			pred, twinNS, err := timedPredict(model, e.Cfg)
			if err != nil {
				return nil, fmt.Errorf("validate: %s %s: %w", app, e.Label, err)
			}
			er := EntryResult{
				App:      app,
				Label:    e.Label,
				Cfg:      e.Cfg.Name(),
				Truth:    truthRes.Breakdown.Normalized(baseTotal),
				Pred:     pred.Normalized(float64(baseTotal)),
				Anchored: pred.Anchored,
				TwinNS:   twinNS,
			}
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
// it (best of three batches) for the speedup accounting.
func timedPredict(m *twin.Model, cfg config.Config) (*twin.Prediction, int64, error) {
	pred, err := m.Predict(cfg)
	if err != nil {
		return nil, 0, err
	}
	const batch = 64
	best := int64(math.MaxInt64)
	for round := 0; round < 3; round++ {
		start := time.Now()
		for i := 0; i < batch; i++ {
			if _, err := m.Predict(cfg); err != nil {
				return nil, 0, err
			}
		}
		if d := time.Since(start).Nanoseconds() / batch; d < best {
			best = d
		}
	}
	return pred, best, nil
}

// Bench is the speed side of the twin's contract, recorded in
// BENCH_twin.json: mean cost of one twin prediction vs one detailed
// simulation of the same configuration.
type Bench struct {
	Description string
	Scale       string
	Matrix      string
	// Accuracy context for the speed numbers (matrix-wide means, in
	// normalized points).
	MeanBucketMAE float64
	MeanTotalErr  float64
	// TwinNSPerConfig is the mean wall-clock cost of one Predict call
	// across the validation matrix.
	TwinNSPerConfig int64
	// SimNSPerConfig is the mean wall-clock cost of one detailed
	// simulation, from the job engine's executed-job accounting (or a
	// fresh timing run when everything validated from cache).
	SimNSPerConfig int64
	SimMethod      string
	Speedup        float64
}

// BenchFrom derives the speedup record from a finished report and the
// session that produced it. When the session executed no fresh
// simulations (a fully warm cache), it times one baseline simulation per
// application in a fresh in-memory session.
func BenchFrom(s *core.Session, rep *Report) (*Bench, error) {
	b := &Bench{
		Description: "Analytical twin (internal/twin) vs detailed simulator, " +
			"measured by cmd/twin over the cross-validation matrix: wall-clock " +
			"cost of one prediction vs one simulation of the same configuration, " +
			"with the matrix-wide accuracy the speedup is traded against.",
		Scale:         rep.Scale,
		Matrix:        rep.Matrix,
		MeanBucketMAE: rep.MeanBucketMAE,
		MeanTotalErr:  rep.MeanTotalErr,
	}
	var sum int64
	for _, er := range rep.Entries {
		sum += er.TwinNS
	}
	if len(rep.Entries) > 0 {
		b.TwinNSPerConfig = sum / int64(len(rep.Entries))
	}
	if m := s.Metrics(); m.Executed > 0 {
		b.SimNSPerConfig = m.WallTime.Nanoseconds() / m.Executed
		b.SimMethod = fmt.Sprintf("mean over %d executed jobs this session", m.Executed)
	} else {
		fresh := core.NewSession(s.Scale)
		fresh.Jobs = s.Jobs
		defer fresh.Close()
		start := time.Now()
		for _, app := range core.AppNames {
			if _, err := fresh.Run(app, core.Base()); err != nil {
				return nil, err
			}
		}
		b.SimNSPerConfig = time.Since(start).Nanoseconds() / int64(len(core.AppNames))
		b.SimMethod = "timed fresh cached-SC baseline runs (validation matrix was fully cache-warm)"
	}
	if b.TwinNSPerConfig > 0 {
		b.Speedup = float64(b.SimNSPerConfig) / float64(b.TwinNSPerConfig)
	}
	return b, nil
}

// Render prints the report as a fixed-width table, one row per matrix
// entry, grouped by application.
func (r *Report) Render(out func(string)) {
	out(fmt.Sprintf("twin cross-validation: %s matrix, %s scale (%d points)",
		r.Matrix, r.Scale, len(r.Entries)))
	app := ""
	for _, er := range r.Entries {
		if er.App != app {
			app = er.App
			out(fmt.Sprintf("  %s", app))
			out(fmt.Sprintf("    %-18s %10s %10s %10s %10s  %s",
				"configuration", "sim total", "twin total", "total err", "bucketMAE", ""))
		}
		tag := ""
		if er.Anchored {
			tag = "anchor"
		}
		out(fmt.Sprintf("    %-18s %10.1f %10.1f %10.2f %10.2f  %s",
			er.Label, er.TruthTotal, er.PredTotal, er.TotalErr, er.BucketMAE, tag))
	}
	status := "PASS"
	if !r.Pass {
		status = "FAIL"
	}
	out(fmt.Sprintf("  mean bucket MAE %.2f (gate %.0f), mean total err %.2f (gate %.0f), worst %s (%.2f) — %s",
		r.MeanBucketMAE, r.Gates.BucketMAE, r.MeanTotalErr, r.Gates.TotalErr,
		r.Worst, r.MaxBucketMAE, status))
}

// SortedByError returns the entries ordered worst-first (for -v digests).
func (r *Report) SortedByError() []EntryResult {
	out := append([]EntryResult(nil), r.Entries...)
	sort.Slice(out, func(i, j int) bool { return out[i].BucketMAE > out[j].BucketMAE })
	return out
}
