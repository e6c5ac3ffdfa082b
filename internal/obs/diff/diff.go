// Package diff is the comparative half of the observability stack: a
// structural comparison engine over two obs.Reports. The paper's whole
// contribution is execution-time breakdowns of one configuration held
// against another, and this package makes that comparison mechanical —
// per-bucket breakdown deltas (absolute cycles and normalized points),
// latency-distribution shift (an earth-mover-style distance over the
// log2 histogram buckets plus p50/p90/p99 drift), per-processor
// timeline divergence, directory/overflow counter deltas, critical-path
// waterfall shifts and invalidation-accounting drift. The judge is
// exact: a metric that did not move is identical, and any movement at
// all is improved or regressed by its direction, so the machine-readable
// Diff names every metric that moved instead of a human eyeballing two
// summaries.
//
// Like internal/obs the package is deterministic: comparing the same
// two reports always serializes to identical JSON (no map ranges, no
// wall clock), which is why it is listed in the simdet analyzer's
// package set.
package diff

import (
	"fmt"
	"math"
	"sort"

	"latsim/internal/obs"
	"latsim/internal/stats"
)

// Schema versions the Diff document (stamped into every diff so
// downstream tooling can detect format drift).
//
// v2: no thresholds field and no within-tolerance verdict.
const Schema = 2

// Verdict classifies one metric's movement between base and new.
type Verdict string

const (
	// Identical: the metric did not move at all.
	Identical Verdict = "identical"
	// Improved: it moved in the cheaper direction.
	Improved Verdict = "improved"
	// Regressed: it moved in the costlier direction.
	Regressed Verdict = "regressed"
)

// severity orders verdicts for the overall fold: a single regression
// outweighs any number of improvements.
func severity(v Verdict) int {
	switch v {
	case Regressed:
		return 2
	case Improved:
		return 1
	}
	return 0
}

// worse returns the more severe of two verdicts.
func worse(a, b Verdict) Verdict {
	if severity(b) > severity(a) {
		return b
	}
	return a
}

// Metric is one scalar comparison. Pct is the relative change against
// base in percent; when base is zero and new is not, it is +/-100 by
// convention (the direction still carries the verdict). Verdict is empty
// only for a processor count that moved, which is noted, not judged.
type Metric struct {
	Name    string  `json:"name"`
	Base    float64 `json:"base"`
	New     float64 `json:"new"`
	Delta   float64 `json:"delta"`
	Pct     float64 `json:"pct"`
	Verdict Verdict `json:"verdict,omitempty"`
}

// BucketDelta compares one execution-time bucket: absolute cycles and
// the bucket's share of its own run's elapsed time in normalized points
// (x100). Every bucket is time the machine spent, so more cycles is
// always the costlier direction.
type BucketDelta struct {
	Bucket      string  `json:"bucket"`
	Base        uint64  `json:"base"`
	New         uint64  `json:"new"`
	Delta       int64   `json:"delta"`
	Pct         float64 `json:"pct"`
	BasePoints  float64 `json:"base_points"`
	NewPoints   float64 `json:"new_points"`
	DeltaPoints float64 `json:"delta_points"`
	Verdict     Verdict `json:"verdict"`
}

// HistDelta compares one operation-latency histogram: the summary
// statistics (count, mean, p50/p90/p99, each a Metric) and the
// distribution shift — an earth-mover-style distance over the existing
// log2 buckets, in bucket widths. A histogram present on only one side
// is judged by its count metric (0 -> n is an appearance, n -> 0 a
// disappearance) and noted.
type HistDelta struct {
	Name         string   `json:"name"`
	Stats        []Metric `json:"stats"`
	Shift        float64  `json:"shift"`
	ShiftVerdict Verdict  `json:"shift_verdict"`
	Verdict      Verdict  `json:"verdict"`
	Note         string   `json:"note,omitempty"`
}

// ProcDivergence is one processor's timeline divergence in points.
type ProcDivergence struct {
	Proc   int     `json:"proc"`
	Points float64 `json:"points"`
}

// TimelineDiff summarizes per-processor bucket-timeline divergence:
// for each processor present in both reports, half the L1 distance
// between its two bucket-share vectors, in points. It is unsigned —
// a mix shift has no cheaper direction — so its verdict is never
// "improved".
type TimelineDiff struct {
	Procs     int              `json:"procs"`
	MeanPts   float64          `json:"mean_points"`
	MaxPts    float64          `json:"max_points"`
	WorstProc int              `json:"worst_proc"`
	PerProc   []ProcDivergence `json:"per_proc,omitempty"`
	Verdict   Verdict          `json:"verdict"`
}

// StallDelta compares one stall bucket of the critical-path waterfall:
// total attributed stall cycles plus the dominant latency source on
// each side (a dominance flip is worth a look even when the cycles did
// not move, so it is carried explicitly, and noted at equal cycles).
type StallDelta struct {
	Bucket       string  `json:"bucket"`
	Base         uint64  `json:"base"`
	New          uint64  `json:"new"`
	Delta        int64   `json:"delta"`
	Pct          float64 `json:"pct"`
	DominantBase string  `json:"dominant_base,omitempty"`
	DominantNew  string  `json:"dominant_new,omitempty"`
	Verdict      Verdict `json:"verdict"`
}

// InvalDelta compares the directory organizations' invalidation
// accounting. An organization change is noted, not judged — comparing
// full-map against limited-pointer is a legitimate experiment, and the
// counter verdicts carry the cost shift.
type InvalDelta struct {
	OrgBase string   `json:"org_base"`
	OrgNew  string   `json:"org_new"`
	Metrics []Metric `json:"metrics"`
	Verdict Verdict  `json:"verdict"`
	Note    string   `json:"note,omitempty"`
}

// Diff is the machine-readable comparison of two reports. Verdict is
// the most severe per-metric verdict; Regressions names every metric
// that regressed (the obsdiff exit status comes from it). Notes carry
// what moved without a cost direction: a processor-count change (Procs
// then has no verdict) and a dominant-source flip at equal stall cycles.
type Diff struct {
	Schema    int    `json:"schema_version"`
	BaseLabel string `json:"base,omitempty"`
	NewLabel  string `json:"new,omitempty"`

	Elapsed  Metric        `json:"elapsed"`
	Procs    Metric        `json:"procs"`
	Buckets  []BucketDelta `json:"buckets,omitempty"`
	Counters []Metric      `json:"counters,omitempty"`
	Hists    []HistDelta   `json:"hists,omitempty"`
	Timeline *TimelineDiff `json:"timeline,omitempty"`
	Stalls   []StallDelta  `json:"stalls,omitempty"`
	Inval    *InvalDelta   `json:"inval,omitempty"`

	Verdict     Verdict  `json:"verdict"`
	Regressions []string `json:"regressions,omitempty"`
	Notes       []string `json:"notes,omitempty"`
}

// scalar builds a Metric for a higher-is-costlier scalar.
func scalar(name string, base, cur float64) Metric {
	m := Metric{Name: name, Base: base, New: cur, Delta: cur - base}
	switch {
	case m.Delta == 0:
		m.Verdict = Identical
		return m
	case base != 0:
		m.Pct = 100 * m.Delta / base
	case m.Delta > 0:
		m.Pct = 100
	default:
		m.Pct = -100
	}
	m.Verdict = Improved
	if m.Delta > 0 {
		m.Verdict = Regressed
	}
	return m
}

// Compare diffs cur against base. Either report nil yields a nil Diff
// (the caller decides what an absent side means).
func Compare(base, cur *obs.Report) *Diff {
	if base == nil || cur == nil {
		return nil
	}
	d := &Diff{Schema: Schema, Verdict: Identical}

	d.Elapsed = scalar("elapsed", float64(base.Elapsed), float64(cur.Elapsed))
	d.fold(d.Elapsed.Verdict, "elapsed")

	// Processor-count drift is informational: a cross-configuration
	// comparison legitimately changes it, and every cost it causes
	// shows up in the judged metrics. So it is a note, not a verdict.
	d.Procs = scalar("procs", float64(base.Procs), float64(cur.Procs))
	if d.Procs.Verdict != Identical {
		d.Procs.Verdict = ""
		d.note("processor counts differ (%d vs %d); per-processor timelines not compared", base.Procs, cur.Procs)
	}

	d.compareBuckets(base, cur)
	d.compareCounters(base, cur)
	d.compareHists(base, cur)
	if base.Procs == cur.Procs {
		d.compareTimelines(base, cur)
	}
	d.compareWaterfalls(base, cur)
	return d
}

// fold folds one judged metric into the overall verdict.
func (d *Diff) fold(v Verdict, name string) {
	d.Verdict = worse(d.Verdict, v)
	if v == Regressed {
		d.Regressions = append(d.Regressions, name)
	}
}

func (d *Diff) note(format string, args ...any) {
	d.Notes = append(d.Notes, fmt.Sprintf(format, args...))
}

// seriesTotals sums each named series, preserving base's order and
// appending names that exist only in cur (sorted for determinism).
func seriesTotals(base, cur []obs.NamedSeries) (names []string, b, c map[string]uint64) {
	b, c = map[string]uint64{}, map[string]uint64{}
	for _, s := range base {
		b[s.Name] += sum(s.Values)
		names = append(names, s.Name)
	}
	var extra []string
	for _, s := range cur {
		if _, ok := c[s.Name]; !ok {
			if _, inBase := b[s.Name]; !inBase {
				extra = append(extra, s.Name)
			}
		}
		c[s.Name] += sum(s.Values)
	}
	sort.Strings(extra)
	return append(names, extra...), b, c
}

func sum(vs []uint64) uint64 {
	var t uint64
	for _, v := range vs {
		t += v
	}
	return t
}

// points converts machine-wide cycles to normalized points (x100) of
// the run's total processor-cycles (elapsed x procs), so a report's
// bucket points sum to ~100 like the paper's normalized breakdowns.
func points(cycles uint64, rep *obs.Report) float64 {
	procs := uint64(rep.Procs)
	if procs == 0 {
		procs = 1
	}
	total := rep.Elapsed * procs
	if total == 0 {
		return 0
	}
	return 100 * float64(cycles) / float64(total)
}

// compareBuckets diffs the execution-time bucket totals, in absolute
// cycles and in normalized points.
func (d *Diff) compareBuckets(base, cur *obs.Report) {
	names, b, c := seriesTotals(base.BucketCycles, cur.BucketCycles)
	for _, name := range names {
		bd := BucketDelta{
			Bucket:     name,
			Base:       b[name],
			New:        c[name],
			Delta:      int64(c[name]) - int64(b[name]),
			BasePoints: points(b[name], base),
			NewPoints:  points(c[name], cur),
		}
		bd.DeltaPoints = bd.NewPoints - bd.BasePoints
		m := scalar("bucket/"+name, float64(bd.Base), float64(bd.New))
		bd.Pct = m.Pct
		bd.Verdict = m.Verdict
		d.Buckets = append(d.Buckets, bd)
		d.fold(bd.Verdict, "bucket/"+name)
	}
}

// compareCounters diffs the scalar counter surface: directory
// transactions by kind, mesh hops, context switches, kernel events,
// peak write-buffer depth, and (when both sides sampled at the same
// stride) sampled span counts.
func (d *Diff) compareCounters(base, cur *obs.Report) {
	add := func(m Metric) {
		d.Counters = append(d.Counters, m)
		d.fold(m.Verdict, m.Name)
	}
	names, b, c := seriesTotals(base.DirTxns, cur.DirTxns)
	for _, name := range names {
		add(scalar("dir/"+name, float64(b[name]), float64(c[name])))
	}
	add(scalar("mesh_hops", float64(sum(base.MeshHops)), float64(sum(cur.MeshHops))))
	add(scalar("switches", float64(base.SwitchTotal()), float64(cur.SwitchTotal())))
	add(scalar("kernel_events", float64(sum(base.KernelEvents)), float64(sum(cur.KernelEvents))))
	add(scalar("wb_depth_peak", float64(peak(base.WBDepthMax)), float64(peak(cur.WBDepthMax))))
	switch {
	case base.Spans == nil || cur.Spans == nil:
		// Span sampling off on a side: nothing to compare.
	case base.Spans.Every != cur.Spans.Every:
		d.note("span sample strides differ (1/%d vs 1/%d); sampled span counts not compared",
			base.Spans.Every, cur.Spans.Every)
	default:
		add(scalar("spans_sampled", float64(base.Spans.Sampled), float64(cur.Spans.Sampled)))
	}
}

func peak(vs []uint32) uint64 {
	var p uint32
	for _, v := range vs {
		if v > p {
			p = v
		}
	}
	return uint64(p)
}

// compareHists diffs every operation-latency histogram present on
// either side, in base order with cur-only names appended sorted.
func (d *Diff) compareHists(base, cur *obs.Report) {
	var names []string
	seen := map[string]bool{}
	for i := range base.Hists {
		names = append(names, base.Hists[i].Name)
		seen[base.Hists[i].Name] = true
	}
	var extra []string
	for i := range cur.Hists {
		if !seen[cur.Hists[i].Name] {
			extra = append(extra, cur.Hists[i].Name)
			seen[cur.Hists[i].Name] = true
		}
	}
	sort.Strings(extra)
	for _, name := range append(names, extra...) {
		hb, hc := base.Hist(name), cur.Hist(name)
		hd := compareHist(name, hb, hc)
		d.Hists = append(d.Hists, hd)
		d.fold(hd.Verdict, "hist/"+name)
	}
}

// compareHist judges one histogram pair. A side with no observations is
// represented by the zero Hist, so appearance/disappearance flows
// through the count metric.
func compareHist(name string, hb, hc *obs.Hist) HistDelta {
	var zero obs.Hist
	hd := HistDelta{Name: name, Verdict: Identical}
	switch {
	case hb == nil && hc == nil:
		return hd
	case hb == nil:
		hb = &zero
		hd.Note = "only in new report"
	case hc == nil:
		hc = &zero
		hd.Note = "only in base report"
	}
	hd.Stats = []Metric{
		scalar("count", float64(hb.Count), float64(hc.Count)),
		scalar("mean", hb.Mean(), hc.Mean()),
		scalar("p50", hb.Quantile(0.50), hc.Quantile(0.50)),
		scalar("p90", hb.Quantile(0.90), hc.Quantile(0.90)),
		scalar("p99", hb.Quantile(0.99), hc.Quantile(0.99)),
	}
	for _, m := range hd.Stats {
		hd.Verdict = worse(hd.Verdict, m.Verdict)
	}
	hd.Shift = Shift(hb, hc)
	hd.ShiftVerdict = Identical
	if hd.Shift > 0 {
		// The distance itself is unsigned; the mean carries the
		// direction. An equal-mean reshape is still a regression — the
		// distribution materially changed under an unchanged average,
		// which is exactly what quantile gates miss.
		hd.ShiftVerdict = Regressed
		if hc.Mean() < hb.Mean() {
			hd.ShiftVerdict = Improved
		}
	}
	hd.Verdict = worse(hd.Verdict, hd.ShiftVerdict)
	return hd
}

// Shift is the earth-mover distance between two latency distributions
// over their shared log2 bucket grid, in bucket widths: the mass of
// each histogram is normalized to 1 and the distance is the integral of
// |CDF_base - CDF_new| (adjacent buckets are one width apart, so the
// prefix-sum form is exact). 0 means identical shapes; 1.0 means the
// whole mass moved one power of two. Zero when either side is empty —
// emptiness is the count metric's business.
func Shift(a, b *obs.Hist) float64 {
	if a == nil || b == nil || a.Count == 0 || b.Count == 0 {
		return 0
	}
	ta, tb := float64(a.Count), float64(b.Count)
	var ca, cb, dist float64
	for i := range a.Buckets {
		ca += float64(a.Buckets[i]) / ta
		cb += float64(b.Buckets[i]) / tb
		dist += math.Abs(ca - cb)
	}
	return dist
}

// compareTimelines measures per-processor divergence between the two
// bucket timelines. Only called with matching processor counts; absent
// timelines (compacted baselines) are skipped with a note.
func (d *Diff) compareTimelines(base, cur *obs.Report) {
	if len(base.Tracks) == 0 || len(cur.Tracks) == 0 {
		if len(base.Tracks) != len(cur.Tracks) {
			d.note("timeline absent on one side; per-processor divergence not compared")
		}
		return
	}
	shares := func(rep *obs.Report) map[int][stats.NumBuckets]float64 {
		out := map[int][stats.NumBuckets]float64{}
		for _, t := range rep.Tracks {
			var cyc [stats.NumBuckets]uint64
			var total uint64
			for _, seg := range t.Segments {
				if b := seg[0]; b < uint64(stats.NumBuckets) {
					cyc[b] += seg[2]
					total += seg[2]
				}
			}
			var sh [stats.NumBuckets]float64
			if total > 0 {
				for b := range sh {
					sh[b] = float64(cyc[b]) / float64(total)
				}
			}
			out[t.Proc] = sh
		}
		return out
	}
	sb, sc := shares(base), shares(cur)
	td := &TimelineDiff{Verdict: Identical, WorstProc: -1}
	// Iterate base's track order (proc-indexed, deterministic), not the
	// map, so the per-proc list is stable.
	for _, t := range base.Tracks {
		cs, ok := sc[t.Proc]
		if !ok {
			continue
		}
		bs := sb[t.Proc]
		var l1 float64
		for b := range bs {
			l1 += math.Abs(bs[b] - cs[b])
		}
		pts := 50 * l1 // half L1, in points
		td.Procs++
		td.MeanPts += pts
		td.PerProc = append(td.PerProc, ProcDivergence{Proc: t.Proc, Points: pts})
		if pts > td.MaxPts || td.WorstProc < 0 {
			td.MaxPts = pts
			td.WorstProc = t.Proc
		}
	}
	if td.Procs == 0 {
		return
	}
	td.MeanPts /= float64(td.Procs)
	if td.MaxPts > 0 {
		td.Verdict = Regressed
	}
	d.Timeline = td
	d.fold(td.Verdict, "timeline")
}

// compareWaterfalls diffs the critical-path stall attribution and the
// invalidation accounting carried on the waterfall.
func (d *Diff) compareWaterfalls(base, cur *obs.Report) {
	wb, wc := base.Waterfall, cur.Waterfall
	if wb == nil && wc == nil {
		return
	}
	if wb == nil || wc == nil {
		d.note("span waterfall absent on one side; stall attribution not compared")
		return
	}
	type bucketSide struct {
		stall    uint64
		dominant string
	}
	b, c := map[string]bucketSide{}, map[string]bucketSide{}
	var names []string
	for _, bw := range wb.Total {
		b[bw.Bucket] = bucketSide{bw.StallCycles, bw.Dominant}
		names = append(names, bw.Bucket)
	}
	var extra []string
	for _, bw := range wc.Total {
		if _, ok := b[bw.Bucket]; !ok {
			extra = append(extra, bw.Bucket)
		}
		c[bw.Bucket] = bucketSide{bw.StallCycles, bw.Dominant}
	}
	sort.Strings(extra)
	for _, name := range append(names, extra...) {
		m := scalar("stall/"+name, float64(b[name].stall), float64(c[name].stall))
		sd := StallDelta{
			Bucket:       name,
			Base:         b[name].stall,
			New:          c[name].stall,
			Delta:        int64(c[name].stall) - int64(b[name].stall),
			Pct:          m.Pct,
			DominantBase: b[name].dominant,
			DominantNew:  c[name].dominant,
			Verdict:      m.Verdict,
		}
		if sd.DominantBase != sd.DominantNew && sd.Verdict == Identical {
			d.note("stall/%s: dominant source %s -> %s at equal stall cycles", name, sd.DominantBase, sd.DominantNew)
		}
		d.Stalls = append(d.Stalls, sd)
		d.fold(sd.Verdict, "stall/"+name)
	}

	ib, ic := wb.Inval, wc.Inval
	if ib == nil && ic == nil {
		return
	}
	id := &InvalDelta{Verdict: Identical}
	var sentB, spurB, ovfB, sentC, spurC, ovfC uint64
	if ib != nil {
		id.OrgBase = ib.Org
		sentB, spurB, ovfB = ib.Sent, ib.Spurious, ib.Overflows
	}
	if ic != nil {
		id.OrgNew = ic.Org
		sentC, spurC, ovfC = ic.Sent, ic.Spurious, ic.Overflows
	}
	if id.OrgBase != id.OrgNew {
		id.Note = "directory organizations differ"
	}
	id.Metrics = []Metric{
		scalar("inval/sent", float64(sentB), float64(sentC)),
		scalar("inval/spurious", float64(spurB), float64(spurC)),
		scalar("inval/overflows", float64(ovfB), float64(ovfC)),
	}
	for _, m := range id.Metrics {
		id.Verdict = worse(id.Verdict, m.Verdict)
		d.fold(m.Verdict, m.Name)
	}
	d.Inval = id
}
