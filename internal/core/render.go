package core

import (
	"fmt"
	"io"
	"strings"

	"latsim/internal/stats"
)

// Bar-chart rendering: horizontal stacked bars that mirror the paper's
// normalized execution-time figures, one row per configuration.

// segGlyphs maps each bucket to a distinct fill glyph.
var segGlyphs = map[stats.Bucket]rune{
	stats.Busy:             '█',
	stats.PrefetchOverhead: '%',
	stats.ReadStall:        '░',
	stats.WriteStall:       '▒',
	stats.SyncStall:        '▓',
	stats.Switching:        '|',
	stats.NoSwitchIdle:     ':',
	stats.AllIdle:          '.',
}

// RenderBars draws the figure as horizontal stacked bars, 100 percentage
// points = barWidth characters, so the baseline bar spans the full width.
func (f *Figure) RenderBars(w io.Writer, barWidth int) {
	fmt.Fprintf(w, "%s: %s\n", f.ID, f.Title)
	fmt.Fprint(w, "  legend:")
	for _, b := range f.Legend {
		fmt.Fprintf(w, "  %c %s", segGlyphs[b], b)
	}
	fmt.Fprintln(w)
	for _, app := range f.Apps {
		fmt.Fprintf(w, "  %s\n", app)
		for _, bar := range f.Bars[app] {
			var sb strings.Builder
			drawn := 0
			want := 0.0
			for _, b := range f.Legend {
				want += bar.Pct[b]
				target := int(want * float64(barWidth) / 100)
				for drawn < target {
					sb.WriteRune(segGlyphs[b])
					drawn++
				}
			}
			fmt.Fprintf(w, "    %-16s %6.1f %s\n", bar.Label, bar.Total, sb.String())
		}
	}
}
