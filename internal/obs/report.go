package obs

import (
	"fmt"
	"io"
	"sort"

	"latsim/internal/obs/span"
	"latsim/internal/sim"
	"latsim/internal/stats"
)

// ReportSchema is the report format version, stamped into every written
// report so a reader can detect files from a newer latsim (ReadReport
// refuses them instead of decoding a partial struct). It moves in
// lockstep with runner.SchemaVersion.
//
// v4: transaction spans + critical-path waterfall.
// v5: directory-organization kinds (overflow, spurious_inval) in DirTxns.
const ReportSchema = 5

// NamedSeries is one per-interval counter series.
type NamedSeries struct {
	Name   string   `json:"name"`
	Values []uint64 `json:"values"`
}

// NamedHist is one latency histogram, labeled by operation class and
// locality ("read_miss/local", "sync/remote", ...).
type NamedHist struct {
	Name string `json:"name"`
	Hist Hist   `json:"hist"`
}

// LinkCount is the total message count over one directed mesh link.
type LinkCount struct {
	From  int    `json:"from"`
	To    int    `json:"to"`
	Count uint64 `json:"count"`
}

// Track is one processor's bucket timeline.
type Track struct {
	Proc     int       `json:"proc"`
	Segments []Segment `json:"segments"`
}

// Report is the machine-readable observability artifact of one run. It is
// attached to machine.Result (and therefore to the runner's persistent
// cache entries), and is everything the exporters need: WriteChromeTrace
// and Summary both work from a Report alone, so cached or archived runs
// can be re-rendered without re-simulating.
//
// All numeric fields are integral so the report round-trips exactly
// through JSON; Elapsed times and series values are simulated cycles.
type Report struct {
	// Schema is ReportSchema at write time (0 in pre-v4 files).
	Schema   int    `json:"schema_version,omitempty"`
	Interval uint64 `json:"interval"`
	Elapsed  uint64 `json:"elapsed"`
	Procs    int    `json:"procs"`

	// BucketCycles has one series per execution-time bucket (machine-wide
	// cycles accrued per interval, summed over processors).
	BucketCycles []NamedSeries `json:"bucket_cycles"`
	// WBDepthMax is the per-interval maximum write-buffer depth over all
	// nodes.
	WBDepthMax []uint32 `json:"wb_depth_max"`
	// Switches counts context switches per interval (machine-wide).
	Switches []uint32 `json:"switches"`
	// DirTxns has one series per directory-transaction kind.
	DirTxns []NamedSeries `json:"dir_txns"`
	// KernelEvents is the kernel's events fired per interval (sampled at
	// the last hook inside each interval, gaps carried forward).
	KernelEvents []uint64 `json:"kernel_events"`
	// MeshHops counts mesh link traversals per interval; MeshLinks holds
	// per-directed-link totals. Both empty without the mesh interconnect.
	MeshHops  []uint64    `json:"mesh_hops,omitempty"`
	MeshLinks []LinkCount `json:"mesh_links,omitempty"`

	// Hists are the operation-latency histograms, one per (Class,
	// locality) pair with at least one observation.
	Hists []NamedHist `json:"hists"`

	// Tracks are the per-processor bucket timelines (the Chrome trace's
	// thread tracks). SegmentsDropped counts timeline entries discarded
	// after DefaultMaxSegments was reached.
	Tracks          []Track `json:"tracks"`
	SegmentsDropped uint64  `json:"segments_dropped,omitempty"`

	// Spans is the sampled transaction-span trace and Waterfall its
	// critical-path stall attribution; both nil unless Options.SpanRate
	// enabled tracing (the Waterfall is attached by machine.RunContext,
	// which owns the stall totals).
	Spans     *span.Trace     `json:"spans,omitempty"`
	Waterfall *span.Waterfall `json:"waterfall,omitempty"`
}

// Finish closes the recorder at the run's end time and assembles the
// report. The recorder must not be used afterwards.
//
//hookpure:cold runs once, after the last simulated event
func (r *Recorder) Finish(elapsed sim.Time) *Report {
	if r == nil {
		return nil
	}
	// Materialize the final interval so every series spans the full run.
	if elapsed > 0 {
		r.idx(uint64(elapsed) - 1)
	} else {
		r.idx(0)
	}
	n := len(r.kernelCum)

	rep := &Report{
		Schema:          ReportSchema,
		Interval:        r.interval,
		Elapsed:         uint64(elapsed),
		Procs:           len(r.cursors),
		WBDepthMax:      r.wbDepthMax,
		Switches:        r.switches,
		SegmentsDropped: r.dropped,
	}
	for b := stats.Bucket(0); b < stats.NumBuckets; b++ {
		rep.BucketCycles = append(rep.BucketCycles, NamedSeries{
			Name: b.String(), Values: r.bucketCycles[b],
		})
	}
	for d := DirKind(0); d < NumDirKinds; d++ {
		rep.DirTxns = append(rep.DirTxns, NamedSeries{
			Name: d.String(), Values: widen(r.dirTxns[d]),
		})
	}
	// Convert the cumulative kernel samples into per-interval deltas,
	// carrying the last sample forward over hook-free intervals.
	rep.KernelEvents = make([]uint64, n)
	var prev uint64
	for i := 0; i < n; i++ {
		cum := r.kernelCum[i]
		if cum < prev {
			cum = prev // interval saw no hook; nothing fired that we observed
		}
		rep.KernelEvents[i] = cum - prev
		prev = cum
	}
	if r.anyMesh {
		rep.MeshHops = widen(r.meshHops)
		links := make([]LinkCount, 0, len(r.meshLinks))
		for k, c := range r.meshLinks {
			links = append(links, LinkCount{From: k[0], To: k[1], Count: c})
		}
		sort.Slice(links, func(i, j int) bool {
			if links[i].From != links[j].From {
				return links[i].From < links[j].From
			}
			return links[i].To < links[j].To
		})
		rep.MeshLinks = links
	}
	for c := Class(0); c < NumClasses; c++ {
		for li, loc := range [2]string{"local", "remote"} {
			if h := r.hists[c][li]; h.Count > 0 {
				rep.Hists = append(rep.Hists, NamedHist{
					Name: c.String() + "/" + loc, Hist: h,
				})
			}
		}
	}
	for p, segs := range r.segs {
		rep.Tracks = append(rep.Tracks, Track{Proc: p, Segments: segs})
	}
	rep.Spans = r.Spans.Finish()
	return rep
}

// Compact strips the report's bulk payloads — raw span records,
// per-processor timeline tracks, per-link mesh totals and per-processor
// waterfalls — while keeping every aggregate the diff engine consumes
// (bucket/counter series, histograms, machine-wide stall attribution,
// invalidation accounting, and the span trace's sampling header). A
// compacted small-scale report is a few KB instead of tens of MB, which
// is what makes committing a baseline matrix under testdata/ viable.
// Mutates rep in place and returns it for chaining; nil-safe.
func (rep *Report) Compact() *Report {
	if rep == nil {
		return nil
	}
	rep.Tracks = nil
	rep.MeshLinks = nil
	if rep.Spans != nil {
		rep.Spans = &span.Trace{
			Every:   rep.Spans.Every,
			Seen:    rep.Spans.Seen,
			Sampled: rep.Spans.Sampled,
			Dropped: rep.Spans.Dropped,
		}
	}
	if rep.Waterfall != nil {
		rep.Waterfall = &span.Waterfall{
			Total: rep.Waterfall.Total,
			Inval: rep.Waterfall.Inval,
		}
	}
	return rep
}

// widen converts a uint32 series to the report's uint64 representation.
func widen(s []uint32) []uint64 {
	out := make([]uint64, len(s))
	for i, v := range s {
		out[i] = uint64(v)
	}
	return out
}

// Hist returns the named histogram, or nil if it has no observations.
func (rep *Report) Hist(name string) *Hist {
	for i := range rep.Hists {
		if rep.Hists[i].Name == name {
			return &rep.Hists[i].Hist
		}
	}
	return nil
}

// Series returns the named bucket series, or nil.
func (rep *Report) Series(name string) []uint64 {
	for _, s := range rep.BucketCycles {
		if s.Name == name {
			return s.Values
		}
	}
	return nil
}

// DirTotal returns the run's total count of the named directory
// transaction kind ("read", "write", "inval", "forward", "writeback",
// "overflow", "spurious_inval"), or 0 if the kind never occurred. The
// analytical twin's workload characterization derives dirty-remote and
// invalidation fractions from these totals.
func (rep *Report) DirTotal(kind string) uint64 {
	var total uint64
	for _, s := range rep.DirTxns {
		if s.Name != kind {
			continue
		}
		for _, v := range s.Values {
			total += v
		}
	}
	return total
}

// MissProfile returns the observation count and mean latency of the
// named operation-latency histogram ("read_miss/local",
// "write_miss/remote", "sync/local", ...). Both are 0 when the class was
// never observed. This is the characterization export used by
// internal/twin: counts split misses by home locality, means carry the
// contention-inclusive service times of the reference run.
func (rep *Report) MissProfile(name string) (count uint64, mean float64) {
	h := rep.Hist(name)
	if h == nil {
		return 0, 0
	}
	return h.Count, h.Mean()
}

// SwitchTotal returns the run's total context-switch count.
func (rep *Report) SwitchTotal() uint64 {
	var total uint64
	for _, v := range rep.Switches {
		total += uint64(v)
	}
	return total
}

// Summary prints the human-readable digest: latency quantiles per
// operation class and the headline series totals.
func (rep *Report) Summary(w io.Writer) {
	fmt.Fprintf(w, "observability: %d cycles in %d intervals of %d cycles, %d procs\n",
		rep.Elapsed, len(rep.KernelEvents), rep.Interval, rep.Procs)
	if len(rep.Hists) > 0 {
		fmt.Fprintf(w, "  %-20s %10s %10s %10s %10s %10s\n",
			"operation", "count", "mean", "p50", "p90", "p99")
		for i := range rep.Hists {
			h := &rep.Hists[i].Hist
			fmt.Fprintf(w, "  %-20s %10d %10.1f %10.0f %10.0f %10.0f\n",
				rep.Hists[i].Name, h.Count, h.Mean(),
				h.Quantile(0.50), h.Quantile(0.90), h.Quantile(0.99))
		}
	}
	var dirTotal, kernTotal uint64
	for _, s := range rep.DirTxns {
		for _, v := range s.Values {
			dirTotal += v
		}
	}
	for _, v := range rep.KernelEvents {
		kernTotal += v
	}
	var wbPeak uint32
	for _, v := range rep.WBDepthMax {
		if v > wbPeak {
			wbPeak = v
		}
	}
	var switches uint32
	for _, v := range rep.Switches {
		switches += v
	}
	fmt.Fprintf(w, "  directory txns: %d, kernel events: %d, peak wb depth: %d, context switches: %d\n",
		dirTotal, kernTotal, wbPeak, switches)
	if len(rep.MeshLinks) > 0 {
		var hops uint64
		var busiest LinkCount
		for _, l := range rep.MeshLinks {
			hops += l.Count
			if l.Count > busiest.Count {
				busiest = l
			}
		}
		fmt.Fprintf(w, "  mesh: %d hops over %d links, busiest %d->%d (%d)\n",
			hops, len(rep.MeshLinks), busiest.From, busiest.To, busiest.Count)
	}
	segs := 0
	for _, t := range rep.Tracks {
		segs += len(t.Segments)
	}
	fmt.Fprintf(w, "  timeline: %d segments", segs)
	if rep.SegmentsDropped > 0 {
		fmt.Fprintf(w, " (%d dropped at cap)", rep.SegmentsDropped)
	}
	fmt.Fprintln(w)
	if sp := rep.Spans; sp != nil {
		fmt.Fprintf(w, "  spans: %d of %d transactions sampled (1/%d), %d records",
			sp.Sampled, sp.Seen, sp.Every, len(sp.Spans))
		if sp.Dropped > 0 {
			fmt.Fprintf(w, " (%d dropped at cap)", sp.Dropped)
		}
		fmt.Fprintln(w)
	}
	if wf := rep.Waterfall; wf != nil && len(wf.Total) > 0 {
		fmt.Fprintf(w, "  %-12s %12s %12s  %s\n", "stall bucket", "cycles", "dominant", "attribution")
		for _, b := range wf.Total {
			fmt.Fprintf(w, "  %-12s %12d %12s ", b.Bucket, b.StallCycles, b.Dominant)
			for _, s := range b.Segments {
				fmt.Fprintf(w, " %s=%d", s.Kind, s.Attributed)
			}
			fmt.Fprintln(w)
		}
	}
}
