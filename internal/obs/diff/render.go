package diff

import (
	"fmt"
	"io"
	"strings"
)

// This file renders a finished Diff for humans as a fixed-width text
// digest (obsdiff's default output, and what the baseline test prints
// to explain a mismatch). It works from the Diff alone, so archived
// comparisons re-render without the reports that produced them.

// Render prints the text digest. Nil-safe: a nil Diff (an absent
// comparison side) prints a single explanatory line.
func (d *Diff) Render(w io.Writer) {
	if d == nil {
		fmt.Fprintln(w, "obs diff: nothing to compare (a side is missing its report)")
		return
	}
	label := d.BaseLabel
	if label == "" {
		label = "base"
	}
	nlabel := d.NewLabel
	if nlabel == "" {
		nlabel = "new"
	}
	fmt.Fprintf(w, "obs diff: %s vs %s — %s\n", label, nlabel, d.Verdict)
	if len(d.Regressions) > 0 {
		fmt.Fprintf(w, "  regressed: %s\n", strings.Join(d.Regressions, ", "))
	}
	for _, n := range d.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintf(w, "  %-14s %14.0f -> %-14.0f %+8.2f%%  [%s]\n",
		"elapsed", d.Elapsed.Base, d.Elapsed.New, d.Elapsed.Pct, d.Elapsed.Verdict)
	fmt.Fprintf(w, "  %-14s %14.0f -> %-14.0f\n", "procs", d.Procs.Base, d.Procs.New)

	if len(d.Buckets) > 0 {
		fmt.Fprintf(w, "  execution-time buckets (cycles; points = share of own run's elapsed x procs, x100):\n")
		fmt.Fprintf(w, "    %-12s %14s %14s %+10s %8s %8s %8s  %s\n",
			"bucket", "base", "new", "pct", "base.pts", "new.pts", "d.pts", "verdict")
		for _, b := range d.Buckets {
			fmt.Fprintf(w, "    %-12s %14d %14d %+9.2f%% %8.2f %8.2f %+8.2f  [%s]\n",
				b.Bucket, b.Base, b.New, b.Pct, b.BasePoints, b.NewPoints, b.DeltaPoints, b.Verdict)
		}
	}
	if len(d.Counters) > 0 {
		fmt.Fprintf(w, "  counters:\n")
		for _, m := range d.Counters {
			fmt.Fprintf(w, "    %-16s %14.0f -> %-14.0f %+8.2f%%  [%s]\n",
				m.Name, m.Base, m.New, m.Pct, m.Verdict)
		}
	}
	if len(d.Hists) > 0 {
		fmt.Fprintf(w, "  latency histograms (shift in log2-bucket widths):\n")
		for _, h := range d.Hists {
			fmt.Fprintf(w, "    %-20s shift %.3f [%s]  ->  [%s]", h.Name, h.Shift, h.ShiftVerdict, h.Verdict)
			if h.Note != "" {
				fmt.Fprintf(w, "  (%s)", h.Note)
			}
			fmt.Fprintln(w)
			for _, m := range h.Stats {
				fmt.Fprintf(w, "      %-8s %14.1f -> %-14.1f %+8.2f%%  [%s]\n",
					m.Name, m.Base, m.New, m.Pct, m.Verdict)
			}
		}
	}
	if d.Timeline != nil {
		fmt.Fprintf(w, "  timeline divergence: mean %.2f pts, max %.2f pts (proc %d) over %d procs  [%s]\n",
			d.Timeline.MeanPts, d.Timeline.MaxPts, d.Timeline.WorstProc, d.Timeline.Procs, d.Timeline.Verdict)
	}
	if len(d.Stalls) > 0 {
		fmt.Fprintf(w, "  critical-path waterfall (stall cycles, dominant source):\n")
		for _, s := range d.Stalls {
			dom := s.DominantBase
			if s.DominantNew != s.DominantBase {
				dom = s.DominantBase + " -> " + s.DominantNew
			}
			fmt.Fprintf(w, "    %-12s %14d -> %-14d %+8.2f%%  %-24s [%s]\n",
				s.Bucket, s.Base, s.New, s.Pct, dom, s.Verdict)
		}
	}
	if d.Inval != nil {
		org := d.Inval.OrgBase
		if d.Inval.OrgNew != d.Inval.OrgBase {
			org = d.Inval.OrgBase + " -> " + d.Inval.OrgNew
		}
		fmt.Fprintf(w, "  invalidation accounting (%s):\n", org)
		for _, m := range d.Inval.Metrics {
			fmt.Fprintf(w, "    %-16s %14.0f -> %-14.0f %+8.2f%%  [%s]\n",
				m.Name, m.Base, m.New, m.Pct, m.Verdict)
		}
	}
}
