package core

import (
	"fmt"
	"io"

	"latsim/internal/config"
	"latsim/internal/machine"
	"latsim/internal/sim"
	"latsim/internal/stats"
)

// This file holds experiments beyond the paper's figures: the consistency
// spectrum the paper only cites (PC and WC "fall between sequential and
// release consistency"), a processor-count scaling sweep, the prefetch
// coverage factors of Section 5.2, and an analytical multiple-context
// model cross-validation (Saavedra-Barrera et al., cited as [24]).

// spectrum compares all four memory consistency models per app.
func spectrum() figureSpec {
	var bars []barSpec
	for _, mdl := range []config.Consistency{config.SC, config.PC, config.WC, config.RC} {
		cfg := Base()
		cfg.Model = mdl
		bars = append(bars, barSpec{mdl.String(), cfg})
	}
	return figureSpec{"Spectrum", "Consistency spectrum: SC, PC, WC, RC (paper Section 4 cites PC/WC as intermediate)",
		singleCtxLegend, bars}
}

// ScalingPoint is one processor count in the scaling sweep.
type ScalingPoint struct {
	App     string
	Procs   int
	Elapsed sim.Time
	Speedup float64 // vs the 4-processor run of the same app
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

// ScalingSweep varies the processor count (the paper fixes 16; this shows
// where each application's parallelism runs out, e.g. PTHOR's limited
// concurrency).
func (s *Session) ScalingSweep() ([]ScalingPoint, error) {
	cfgs := scalingConfigs()
	res, err := s.runAll(AppNames, cfgs)
	if err != nil {
		return nil, err
	}
	var out []ScalingPoint
	for i, app := range AppNames {
		base := res[i][0].Elapsed
		for j, cfg := range cfgs {
			out = append(out, ScalingPoint{
				App:     app,
				Procs:   cfg.Procs,
				Elapsed: res[i][j].Elapsed,
				Speedup: float64(base) / float64(res[i][j].Elapsed),
			})
		}
	}
	return out, nil
}

// RenderScaling prints the sweep.
func RenderScaling(w io.Writer, pts []ScalingPoint) {
	fmt.Fprintln(w, "Scaling sweep: processor count (speedup vs 4 processors)")
	fmt.Fprintf(w, "  %-8s %8s %12s %9s\n", "app", "procs", "cycles", "speedup")
	for _, p := range pts {
		fmt.Fprintf(w, "  %-8s %8d %12d %8.2fx\n", p.App, p.Procs, p.Elapsed, p.Speedup)
	}
}

// CoverageRow reports the prefetch coverage factor of Section 5.2 — the
// fraction of the non-prefetching version's read misses for which a
// prefetch is issued (paper: 87% MP3D, 89% LU, 56% PTHOR) — plus the
// actual miss reduction achieved (lower: late prefetches and cache
// interference knock prefetched lines out before use, as the paper
// discusses).
type CoverageRow struct {
	App            string
	BaselineMisses uint64
	PfMisses       uint64
	Issued         uint64
	Coverage       float64 // issued prefetches / baseline misses, capped at 1
	MissReduction  float64
	PaperCoverage  float64
}

func coverageConfigs() []config.Config {
	cfg := Base()
	cfg.Model = config.RC
	pfCfg := cfg
	pfCfg.Prefetch = true
	return []config.Config{cfg, pfCfg}
}

// PrefetchCoverage measures coverage factors under RC.
func (s *Session) PrefetchCoverage() ([]CoverageRow, error) {
	res, err := s.runAll(AppNames, coverageConfigs())
	if err != nil {
		return nil, err
	}
	paper := map[string]float64{"MP3D": 0.87, "LU": 0.89, "PTHOR": 0.56}
	var rows []CoverageRow
	for i, app := range AppNames {
		baseRes, pfRes := res[i][0], res[i][1]
		bm := demandMisses(baseRes)
		pm := demandMisses(pfRes)
		issued := pfRes.Prefetches()
		cov := 0.0
		if bm > 0 {
			cov = float64(issued) / float64(bm)
			if cov > 1 {
				cov = 1
			}
		}
		red := 0.0
		if bm > 0 && pm < bm {
			red = float64(bm-pm) / float64(bm)
		}
		rows = append(rows, CoverageRow{
			App:            app,
			BaselineMisses: bm,
			PfMisses:       pm,
			Issued:         issued,
			Coverage:       cov,
			MissReduction:  red,
			PaperCoverage:  paper[app],
		})
	}
	return rows, nil
}

// demandMisses counts a run's shared reads that missed both caches.
func demandMisses(r *machine.Result) uint64 {
	reads := r.SharedReads()
	hits := r.Totals(func(p *stats.Proc) uint64 { return p.ReadPrimaryHit + p.ReadSecHit })
	if hits > reads {
		return 0
	}
	return reads - hits
}

// RenderCoverage prints the coverage factors.
func RenderCoverage(w io.Writer, rows []CoverageRow) {
	fmt.Fprintln(w, "Prefetch coverage factor (prefetches issued per baseline read miss; RC)")
	fmt.Fprintf(w, "  %-8s %14s %12s %10s %10s %10s\n", "app", "base misses", "issued", "coverage", "paper", "miss cut")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-8s %14d %12d %9.0f%% %9.0f%% %9.0f%%\n",
			r.App, r.BaselineMisses, r.Issued, 100*r.Coverage, 100*r.PaperCoverage, 100*r.MissReduction)
	}
}

// AnalyticPoint compares simulated multiple-context processor efficiency
// with the analytical model of Saavedra-Barrera/Culler/von Eicken (the
// paper's reference [24]): with run length R, miss latency L and switch
// cost C, the processor is saturated when N >= 1 + (L / (R + C)), giving
//
//	E(N) = N*R / (R + C + L)   (linear regime, N below saturation)
//	E(N) = R / (R + C)         (saturated regime)
type AnalyticPoint struct {
	App       string
	Contexts  int
	Simulated float64 // busy fraction of the processor
	Model     float64
}

// analyticConfigs are the single-context run the model takes its
// parameters from, then 1, 2 and 4 contexts with a 4-cycle switch.
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

// AnalyticContexts evaluates the model against simulation for 1, 2 and 4
// contexts under SC with a 4-cycle switch.
func (s *Session) AnalyticContexts() ([]AnalyticPoint, error) {
	cfgs := analyticConfigs()
	res, err := s.runAll(AppNames, cfgs)
	if err != nil {
		return nil, err
	}
	var out []AnalyticPoint
	for i, app := range AppNames {
		// Parameters from the single-context run.
		single := res[i][0]
		r := single.MeanRunLength()
		if r < 1 {
			r = 1
		}
		// Average read-miss latency from the single-context run.
		var missCycles, misses uint64
		for _, p := range single.Procs {
			missCycles += uint64(p.ReadMissCycles)
			misses += p.ReadMisses
		}
		l := 60.0
		if misses > 0 {
			l = float64(missCycles) / float64(misses)
		}
		c := 4.0
		for j := 1; j < len(cfgs); j++ {
			ctxs := cfgs[j].Contexts
			model := float64(ctxs) * r / (r + c + l)
			if sat := r / (r + c); model > sat {
				model = sat
			}
			out = append(out, AnalyticPoint{
				App:       app,
				Contexts:  ctxs,
				Simulated: res[i][j].ProcessorUtilization(),
				Model:     model,
			})
		}
	}
	return out, nil
}

// RenderAnalytic prints the model comparison.
func RenderAnalytic(w io.Writer, pts []AnalyticPoint) {
	fmt.Fprintln(w, "Multiple-context efficiency: simulation vs analytical model [24]")
	fmt.Fprintf(w, "  %-8s %9s %11s %9s\n", "app", "contexts", "simulated", "model")
	for _, p := range pts {
		fmt.Fprintf(w, "  %-8s %9d %10.2f %9.2f\n", p.App, p.Contexts, p.Simulated, p.Model)
	}
	fmt.Fprintln(w, "  (the model ignores sync, cache interference and load imbalance,")
	fmt.Fprintln(w, "   so it is an upper bound — the paper's LU/PTHOR discussions explain")
	fmt.Fprintln(w, "   exactly the gaps it leaves)")
}
