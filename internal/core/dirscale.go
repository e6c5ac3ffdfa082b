package core

import (
	"encoding/json"
	"fmt"
	"io"

	"latsim/internal/config"
	"latsim/internal/dirset"
	"latsim/internal/sim"
)

// This file holds the directory-organization scaling experiment: the
// paper's machine keeps a full bit vector per line, which is exact but
// grows linearly with the processor count. The dirscale sweep runs the
// same workload under the three sharer-set representations (DESIGN.md
// §4e) at 64, 256 and 1024 processors and records what each one pays —
// invalidation traffic, overflow broadcasts, spurious deliveries — and
// what it saves in directory storage. The sweep is opt-in (`figures -exp
// dirscale`): it is not part of "all", whose output is a byte-identity
// regression gate.

// DirScaleProcs are the sweep's processor counts: the paper's practical
// ceiling, 4x past the old 64-bit checker cap, and 16x past it.
var DirScaleProcs = []int{64, 256, 1024}

// dirScaleApp is the sweep's one benchmark: LU's read-shared column
// blocks put several readers on a line before each pivot write
// invalidates them, which is exactly the access pattern that separates
// the representations.
const dirScaleApp = "LU"

// dirScaleConfigs crosses DirScaleProcs with every directory
// organization (full map first), each with the default
// pointer/coarseness parameters.
func dirScaleConfigs() []config.Config {
	var cfgs []config.Config
	for _, procs := range DirScaleProcs {
		for _, org := range []dirset.Org{dirset.FullMap, dirset.LimitedPtr, dirset.CoarseVector} {
			cfg := Base()
			cfg.Procs = procs
			cfg.DirOrg = org
			cfgs = append(cfgs, cfg)
		}
	}
	return cfgs
}

// DirScalePoint is one (application, organization, processor count) cell.
type DirScalePoint struct {
	App            string   `json:"app"`
	Org            string   `json:"org"`
	Procs          int      `json:"procs"`
	Elapsed        sim.Time `json:"elapsed_cycles"`
	InvalsSent     uint64   `json:"invals_sent"`
	DirOverflows   uint64   `json:"dir_overflows"`
	SpuriousInvals uint64   `json:"spurious_invals"`
	// EntryBits is the directory storage per line entry: Procs bits for
	// the full map, i·⌈log₂P⌉+1 for i pointers, ⌈P/k⌉ for the coarse
	// vector.
	EntryBits int `json:"entry_bits"`
	// SlowdownVsExact is Elapsed over the full-map Elapsed at the same
	// processor count — the execution-time price of imprecision.
	SlowdownVsExact float64 `json:"slowdown_vs_exact"`
}

// DirScaleSweep runs LU under every directory organization at every
// DirScaleProcs count.
func (s *Session) DirScaleSweep() ([]DirScalePoint, error) {
	cfgs := dirScaleConfigs()
	res, err := s.runAll([]string{dirScaleApp}, cfgs)
	if err != nil {
		return nil, err
	}
	var out []DirScalePoint
	var exact sim.Time
	for i, cfg := range cfgs {
		r := res[0][i]
		if cfg.DirOrg == dirset.FullMap {
			exact = r.Elapsed
		}
		slow := 1.0
		if exact > 0 {
			slow = float64(r.Elapsed) / float64(exact)
		}
		out = append(out, DirScalePoint{
			App:             dirScaleApp,
			Org:             cfg.DirOrg.String(),
			Procs:           cfg.Procs,
			Elapsed:         r.Elapsed,
			InvalsSent:      r.InvalsSent(),
			DirOverflows:    r.DirOverflows(),
			SpuriousInvals:  r.SpuriousInvals(),
			EntryBits:       dirset.NewLayout(cfg.DirOrg, cfg.Procs, cfg.DirPointers, cfg.DirCoarseness).Bits(),
			SlowdownVsExact: slow,
		})
	}
	return out, nil
}

// renderDirScale writes the sweep as a table, or as the BENCH_dir.json
// document with opt.JSON.
func (s *Session) renderDirScale(w io.Writer, opt *RenderOptions) error {
	pts, err := s.DirScaleSweep()
	if err != nil {
		return err
	}
	if !opt.JSON {
		RenderDirScale(w, pts)
		return nil
	}
	b, err := DirScaleJSON(pts)
	if err != nil {
		return err
	}
	w.Write(append(b, '\n'))
	return nil
}

// RenderDirScale prints the sweep.
func RenderDirScale(w io.Writer, pts []DirScalePoint) {
	fmt.Fprintln(w, "Directory organization scaling (LU; default 4 pointers / 4 procs per bit)")
	fmt.Fprintf(w, "  %-16s %6s %12s %10s %10s %10s %10s %9s\n",
		"org", "procs", "cycles", "invals", "overflows", "spurious", "dir bits", "slowdown")
	for _, p := range pts {
		fmt.Fprintf(w, "  %-16s %6d %12d %10d %10d %10d %10d %8.3fx\n",
			p.Org, p.Procs, p.Elapsed, p.InvalsSent, p.DirOverflows, p.SpuriousInvals,
			p.EntryBits, p.SlowdownVsExact)
	}
	fmt.Fprintln(w, "  (invals = invalidations the home sent; spurious = deliveries to")
	fmt.Fprintln(w, "   nodes with no copy; dir bits = directory storage per line entry)")
}

// DirScaleJSON renders the sweep as the BENCH_dir.json document: the
// deterministic simulation record of what each organization costs, so a
// regression shows up as a diff.
func DirScaleJSON(pts []DirScalePoint) ([]byte, error) {
	doc := struct {
		Description string          `json:"description"`
		Command     string          `json:"command"`
		Points      []DirScalePoint `json:"points"`
	}{
		Description: "Directory organization scaling: LU (small scale, cached SC) under " +
			"full-map, limited-pointer (4 pointers, broadcast on overflow) and coarse-vector " +
			"(4 processors per bit) sharer sets at 64/256/1024 processors. All counters are " +
			"simulated and deterministic; entry_bits is directory storage per line entry. " +
			"Full-map rows are the exact baseline: zero overflow, and the handful of spurious " +
			"deliveries it still shows come from sharer bits left stale by silent clean " +
			"evictions, not from representation imprecision.",
		Command: "go run ./cmd/figures -exp dirscale -json > BENCH_dir.json",
		Points:  pts,
	}
	return json.MarshalIndent(doc, "", "  ")
}
