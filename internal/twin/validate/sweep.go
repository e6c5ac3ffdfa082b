package validate

import (
	"fmt"
	"math"
	"sort"
	"time"

	"latsim/internal/config"
	"latsim/internal/core"
	"latsim/internal/twin"
)

// The sweep explores the design space the detailed simulator cannot
// afford to: every consistency model crossed with prefetching, context
// counts and switch penalties, write-buffer depths, write-pipelining
// widths and network wire speeds. The twin evaluates the whole grid in
// milliseconds; only the Pareto frontier — the configurations where no
// cheaper design is also faster — goes back to the detailed simulator
// for verification.

// SweepPoint is one explored design point.
type SweepPoint struct {
	Name string
	Cfg  config.Config
	// Cost is the relative hardware-cost score (see costOf).
	Cost float64
	// MeanTotal is the twin-predicted normalized execution time
	// (percent of each application's cached-SC baseline), averaged over
	// the benchmarks. Lower is faster.
	MeanTotal float64
}

// SweepVerification compares twin and detailed simulator on one frontier
// point.
type SweepVerification struct {
	Name      string
	Cost      float64
	PredMean  float64
	SimMean   float64
	TotalErr  float64 // |PredMean-SimMean| in normalized points
	PerApp    map[string]float64
	PerAppSim map[string]float64
}

// SweepReport is the machine-readable sweep result.
type SweepReport struct {
	Scale     string
	Generated string
	// Explored counts distinct configurations evaluated analytically;
	// TwinWallNS is the total wall-clock cost of evaluating all of them
	// (all applications).
	Explored   int
	TwinWallNS int64
	// Frontier is the Pareto frontier over (Cost, MeanTotal), cheapest
	// first. Verified holds the detailed-simulator check of the
	// frontier (capped at VerifyCap points).
	Frontier []SweepPoint
	Verified []SweepVerification
	// MeanFrontierErr is the mean |twin-sim| total error over the
	// verified frontier, in normalized points.
	MeanFrontierErr float64
}

// VerifyCap bounds how many frontier points the sweep re-simulates.
const VerifyCap = 12

// sweepSpace enumerates the design grid: 4 models x prefetch x {1 ctx,
// 2/4 ctx x penalty 4/16} x 3 write-buffer depths x 4 write-pipelining
// widths x 3 wire speeds = 1440 configurations, all cached (prefetching
// requires coherent caches, and the uncached design needs none of the
// swept hardware).
func sweepSpace() []SweepPoint {
	var out []SweepPoint
	base := core.Base()
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
							out = append(out, SweepPoint{
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

// Sweep explores the design grid analytically and verifies the Pareto
// frontier with the detailed simulator. The session provides both the
// characterization reference runs and the frontier verification runs.
func Sweep(s *core.Session) (*SweepReport, error) {
	chars, err := s.CharacterizeAll()
	if err != nil {
		return nil, err
	}
	models := make(map[string]*twin.Model, len(chars))
	baseTotals := make(map[string]float64, len(chars))
	for _, app := range core.AppNames {
		models[app] = twin.New(chars[app])
		baseRes, err := s.Run(app, core.Base())
		if err != nil {
			return nil, err
		}
		baseTotals[app] = float64(baseRes.Breakdown.Total())
	}

	points := sweepSpace()
	rep := &SweepReport{
		Scale:     s.Scale.String(),
		Generated: time.Now().UTC().Format(time.RFC3339),
		Explored:  len(points),
	}
	start := time.Now()
	for i := range points {
		var sum float64
		for _, app := range core.AppNames {
			pred, err := models[app].Predict(points[i].Cfg)
			if err != nil {
				return nil, fmt.Errorf("validate: sweep %s: %w", points[i].Name, err)
			}
			sum += 100 * pred.Total / baseTotals[app]
		}
		points[i].MeanTotal = sum / float64(len(core.AppNames))
	}
	rep.TwinWallNS = time.Since(start).Nanoseconds()

	rep.Frontier = paretoFrontier(points)

	// Verify the frontier in the detailed simulator, cheapest first.
	verify := rep.Frontier
	if len(verify) > VerifyCap {
		verify = verify[:VerifyCap]
	}
	var reqs []core.Request
	for _, p := range verify {
		for _, app := range core.AppNames {
			reqs = append(reqs, core.Request{App: app, Cfg: p.Cfg})
		}
	}
	res, err := s.RunBatch(reqs)
	if err != nil {
		return nil, err
	}
	for i, p := range verify {
		v := SweepVerification{
			Name: p.Name, Cost: p.Cost, PredMean: p.MeanTotal,
			PerApp:    map[string]float64{},
			PerAppSim: map[string]float64{},
		}
		for k, app := range core.AppNames {
			pred, err := models[app].Predict(p.Cfg)
			if err != nil {
				return nil, err
			}
			simTot := 100 * float64(res[i*len(core.AppNames)+k].Breakdown.Total()) / baseTotals[app]
			v.PerApp[app] = 100 * pred.Total / baseTotals[app]
			v.PerAppSim[app] = simTot
			v.SimMean += simTot / float64(len(core.AppNames))
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
func paretoFrontier(points []SweepPoint) []SweepPoint {
	sorted := append([]SweepPoint(nil), points...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Cost != sorted[j].Cost {
			return sorted[i].Cost < sorted[j].Cost
		}
		if sorted[i].MeanTotal != sorted[j].MeanTotal {
			return sorted[i].MeanTotal < sorted[j].MeanTotal
		}
		return sorted[i].Name < sorted[j].Name
	})
	var out []SweepPoint
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
func (r *SweepReport) Render(out func(string)) {
	out(fmt.Sprintf("design-space sweep: %d configurations explored analytically in %.1fms (%s scale)",
		r.Explored, float64(r.TwinWallNS)/1e6, r.Scale))
	out(fmt.Sprintf("Pareto frontier (%d points, %d verified in the detailed simulator):",
		len(r.Frontier), len(r.Verified)))
	out(fmt.Sprintf("  %-40s %6s %10s %10s %9s", "configuration", "cost", "twin mean", "sim mean", "err"))
	verified := map[string]SweepVerification{}
	for _, v := range r.Verified {
		verified[v.Name] = v
	}
	for _, p := range r.Frontier {
		if v, ok := verified[p.Name]; ok {
			out(fmt.Sprintf("  %-40s %6.1f %10.1f %10.1f %9.2f", p.Name, p.Cost, v.PredMean, v.SimMean, v.TotalErr))
		} else {
			out(fmt.Sprintf("  %-40s %6.1f %10.1f %10s %9s", p.Name, p.Cost, p.MeanTotal, "-", "-"))
		}
	}
	out(fmt.Sprintf("mean frontier error %.2f normalized points", r.MeanFrontierErr))
}
