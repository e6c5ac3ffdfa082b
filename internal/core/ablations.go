package core

import (
	"fmt"
	"io"

	"latsim/internal/config"
	"latsim/internal/sim"
	"latsim/internal/stats"
)

// HitRateRow reports the cache hit rates of Section 3 of the paper.
type HitRateRow struct {
	App          string
	ReadHitRate  float64
	WriteHitRate float64
	PaperRead    float64
	PaperWrite   float64
}

// HitRates reproduces the Section 3 hit-rate numbers (scaled caches,
// cached SC machine). The paper reports 80/66/77% shared-read and
// 75/97/47% shared-write hit rates for MP3D/LU/PTHOR.
func (s *Session) HitRates() ([]HitRateRow, error) {
	res, err := s.runAll(AppNames, baseOnly())
	if err != nil {
		return nil, err
	}
	paperRead := map[string]float64{"MP3D": 0.80, "LU": 0.66, "PTHOR": 0.77}
	paperWrite := map[string]float64{"MP3D": 0.75, "LU": 0.97, "PTHOR": 0.47}
	var rows []HitRateRow
	for i, app := range AppNames {
		rows = append(rows, HitRateRow{
			App:          app,
			ReadHitRate:  res[i][0].ReadHitRate(),
			WriteHitRate: res[i][0].WriteHitRate(),
			PaperRead:    paperRead[app],
			PaperWrite:   paperWrite[app],
		})
	}
	return rows, nil
}

// RenderHitRates prints the hit-rate comparison.
func RenderHitRates(w io.Writer, rows []HitRateRow) {
	fmt.Fprintln(w, "Section 3 hit rates (scaled caches, cached SC)")
	fmt.Fprintf(w, "  %-8s %12s %12s %12s %12s\n", "Program", "read", "read(paper)", "write", "write(paper)")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-8s %11.0f%% %11.0f%% %11.0f%% %11.0f%%\n",
			r.App, 100*r.ReadHitRate, 100*r.PaperRead, 100*r.WriteHitRate, 100*r.PaperWrite)
	}
}

// AblationPoint is one setting of an ablation sweep.
type AblationPoint struct {
	Setting string
	App     string
	Total   sim.Time
	Busy    sim.Time
}

// Ablation is a parameter sweep over one design choice.
type Ablation struct {
	ID     string
	Title  string
	Points []AblationPoint
}

// RenderAblation prints a sweep.
func (a *Ablation) Render(w io.Writer) {
	fmt.Fprintf(w, "%s: %s\n", a.ID, a.Title)
	fmt.Fprintf(w, "  %-8s %-16s %12s %12s\n", "app", "setting", "cycles", "busy")
	for _, p := range a.Points {
		fmt.Fprintf(w, "  %-8s %-16s %12d %12d\n", p.App, p.Setting, p.Total, p.Busy)
	}
}

// ablationSpec declares a sweep over one design choice: setting i runs
// the base machine with mutate(cfg, i) applied.
type ablationSpec struct {
	id, title string
	settings  []string
	mutate    func(cfg *config.Config, i int)
}

// ablationConfigs lists every setting's configuration of every spec, in
// order.
func ablationConfigs(specs []ablationSpec) []config.Config {
	var cfgs []config.Config
	for _, a := range specs {
		for i := range a.settings {
			cfg := Base()
			a.mutate(&cfg, i)
			cfgs = append(cfgs, cfg)
		}
	}
	return cfgs
}

// ablations runs every spec's sweep over all benchmarks as one batch.
func (s *Session) ablations(specs []ablationSpec) ([]*Ablation, error) {
	res, err := s.runAll(AppNames, ablationConfigs(specs))
	if err != nil {
		return nil, err
	}
	out := make([]*Ablation, len(specs))
	first := 0 // column of the spec's first setting in res
	for k, a := range specs {
		ab := &Ablation{ID: a.id, Title: a.title}
		for i, app := range AppNames {
			for j, set := range a.settings {
				r := res[i][first+j]
				ab.Points = append(ab.Points, AblationPoint{
					Setting: set,
					App:     app,
					Total:   r.Breakdown.Total(),
					Busy:    r.Breakdown.Time[stats.Busy],
				})
			}
		}
		first += len(a.settings)
		out[k] = ab
	}
	return out, nil
}

// Ablation runs the ablation sweep whose Ablation.ID is id.
func (s *Session) Ablation(id string) (*Ablation, error) {
	for _, a := range append(fullCacheAblations(), designAblations()...) {
		if a.id == id {
			abs, err := s.ablations([]ablationSpec{a})
			if err != nil {
				return nil, err
			}
			return abs[0], nil
		}
	}
	return nil, fmt.Errorf("core: unknown ablation %q", id)
}

// ablationExperiment declares an experiment that runs specs' sweeps as
// one batch and prints each followed by sep.
func ablationExperiment(id string, specs func() []ablationSpec, sep string) experiment {
	return experiment{
		id: id,
		render: func(s *Session, w io.Writer, _ *RenderOptions) error {
			abs, err := s.ablations(specs())
			if err != nil {
				return err
			}
			for _, a := range abs {
				a.Render(w)
				io.WriteString(w, sep)
			}
			return nil
		},
	}
}

// fullCacheAblations is the paper's Section 2.3 sensitivity check: rerun
// with the unscaled 64 KB / 256 KB caches; absolute times drop but the
// relative gains from the techniques stay similar.
func fullCacheAblations() []ablationSpec {
	return []ablationSpec{{"fullcache", "Scaled (2KB/4KB) vs full (64KB/256KB) caches, SC",
		[]string{"scaled", "full"}, func(cfg *config.Config, i int) {
			if i == 1 {
				*cfg = cfg.FullCaches()
			}
		}}}
}

// designAblations are the design-choice sweeps of DESIGN.md §3, in the
// order the ablations experiment renders them.
func designAblations() []ablationSpec {
	depths := []int{1, 4, 16, 64}
	pens := []int{1, 4, 8, 16, 32}
	wires := []int{5, 15, 45, 90}
	ows := []int{1, 2, 4, 8}
	ways := []int{1, 2, 4}
	return []ablationSpec{
		{"wbuf", "Write-buffer depth under RC",
			[]string{"wb=1", "wb=4", "wb=16", "wb=64"}, func(cfg *config.Config, i int) {
				cfg.Model = config.RC
				cfg.WriteBufferDepth = depths[i]
			}},
		{"switch", "Context-switch penalty (4 contexts, SC)",
			[]string{"sw=1", "sw=4", "sw=8", "sw=16", "sw=32"}, func(cfg *config.Config, i int) {
				cfg.Contexts = 4
				cfg.SwitchPenalty = pens[i]
			}},
		// The wire latency sets the remote:local latency ratio.
		{"network", "Network hop wire latency, SC",
			[]string{"wire=5", "wire=15", "wire=45", "wire=90"}, func(cfg *config.Config, i int) {
				cfg.Lat.Wire = wires[i]
			}},
		// Outstanding writes are the lockup-free cache's write MSHRs.
		{"owrites", "Outstanding writes under RC",
			[]string{"ow=1", "ow=2", "ow=4", "ow=8"}, func(cfg *config.Config, i int) {
				cfg.Model = config.RC
				cfg.MaxOutstandingWrites = ows[i]
			}},
		// The paper's machine is direct-mapped; conflict misses matter
		// most for LU's column pairs.
		{"assoc", "Secondary cache associativity (SC)",
			[]string{"1-way", "2-way", "4-way"}, func(cfg *config.Config, i int) {
				cfg.SecondaryWays = ways[i]
			}},
		// The paper's protocol grants reads a shared copy.
		{"egrant", "Exclusive grant on read misses (MESI E-state) vs paper protocol",
			[]string{"shared-grant", "exclusive-grant"}, func(cfg *config.Config, i int) {
				cfg.ExclusiveGrant = i == 1
			}},
		// The direct network has constant latency; the 2-D wormhole
		// mesh is the real DASH topology.
		{"mesh", "Interconnect topology: direct vs 2-D mesh, SC",
			[]string{"direct", "mesh"}, func(cfg *config.Config, i int) {
				cfg.MeshNetwork = i == 1
			}},
	}
}
