package diff

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"latsim/internal/obs"
	"latsim/internal/obs/span"
)

// report builds a small but fully-populated obs.Report two tests can
// perturb independently.
func report() *obs.Report {
	h := obs.Hist{}
	for i := 0; i < 100; i++ {
		h.Observe(uint64(20 + i%8))
	}
	return &obs.Report{
		Schema:   obs.ReportSchema,
		Interval: 1024,
		Elapsed:  10000,
		Procs:    2,
		BucketCycles: []obs.NamedSeries{
			{Name: "busy", Values: []uint64{4000, 2000}},
			{Name: "read", Values: []uint64{1500, 500}},
			{Name: "sync", Values: []uint64{1000, 1000}},
		},
		WBDepthMax:   []uint32{3, 7},
		Switches:     []uint32{4, 6},
		KernelEvents: []uint64{500, 700},
		MeshHops:     []uint64{100, 140},
		DirTxns: []obs.NamedSeries{
			{Name: "read_miss", Values: []uint64{50, 30}},
			{Name: "invalidate", Values: []uint64{10, 5}},
		},
		Hists: []obs.NamedHist{{Name: "read_miss/remote", Hist: h}},
		Tracks: []obs.Track{
			{Proc: 0, Segments: []obs.Segment{{0, 0, 6000}, {2, 6000, 4000}}},
			{Proc: 1, Segments: []obs.Segment{{0, 0, 5000}, {4, 5000, 5000}}},
		},
		Spans: &span.Trace{Every: 16, Seen: 160, Sampled: 10},
		Waterfall: &span.Waterfall{
			Total: []span.BucketWaterfall{
				{Bucket: "read", StallCycles: 2000, Dominant: "network"},
				{Bucket: "sync", StallCycles: 2000, Dominant: "sync-wait"},
			},
			Inval: &span.InvalAccounting{Org: "full-map", Sent: 60, Spurious: 0, Overflows: 0},
		},
	}
}

func TestCompareIdentical(t *testing.T) {
	d := Compare(report(), report())
	if d == nil {
		t.Fatal("nil diff for non-nil reports")
	}
	if d.Verdict != Identical {
		t.Fatalf("verdict %s, want identical:\n%s", d.Verdict, renderString(d))
	}
	if len(d.Regressions) != 0 {
		t.Fatalf("regressions on identical reports: %v", d.Regressions)
	}
	for _, b := range d.Buckets {
		if b.Verdict != Identical {
			t.Fatalf("bucket %s verdict %s", b.Bucket, b.Verdict)
		}
	}
	for _, m := range d.Counters {
		if m.Verdict != Identical {
			t.Fatalf("counter %s verdict %s", m.Name, m.Verdict)
		}
	}
	if d.Timeline == nil || d.Timeline.Verdict != Identical {
		t.Fatalf("timeline: %+v", d.Timeline)
	}
	if d.Inval == nil || d.Inval.Verdict != Identical {
		t.Fatalf("inval: %+v", d.Inval)
	}
}

func TestCompareNil(t *testing.T) {
	if d := Compare(nil, report()); d != nil {
		t.Fatalf("Compare(nil, r) = %+v, want nil", d)
	}
	if d := Compare(report(), nil); d != nil {
		t.Fatalf("Compare(r, nil) = %+v, want nil", d)
	}
}

func TestPerturbedBucketRegresses(t *testing.T) {
	cur := report()
	cur.BucketCycles[1].Values[0] += 1500 // "read" grows 75%
	cur.Elapsed += 1500
	d := Compare(report(), cur)
	if d.Verdict != Regressed {
		t.Fatalf("verdict %s, want regressed", d.Verdict)
	}
	found := false
	for _, r := range d.Regressions {
		if r == "bucket/read" {
			found = true
		}
	}
	if !found {
		t.Fatalf("regressions %v do not name bucket/read", d.Regressions)
	}
	var text bytes.Buffer
	d.Render(&text)
	if !strings.Contains(text.String(), "bucket/read") {
		t.Fatalf("text render does not name the regressed metric:\n%s", text.String())
	}
}

func TestImprovedDirection(t *testing.T) {
	cur := report()
	cur.BucketCycles[2].Values[0] -= 800 // "sync" shrinks 40%
	d := Compare(report(), cur)
	if d.Verdict != Improved {
		t.Fatalf("verdict %s, want improved", d.Verdict)
	}
	if len(d.Regressions) != 0 {
		t.Fatalf("improvement listed as regression: %v", d.Regressions)
	}
}

// TestAnyMovementIsJudged: the judge is exact, so one extra mesh hop out
// of 240 regresses the diff, and a 3-cycle wiggle of a near-empty bucket
// is judged like any other bucket.
func TestAnyMovementIsJudged(t *testing.T) {
	cur := report()
	cur.MeshHops[0]++
	if d := Compare(report(), cur); d.Verdict != Regressed {
		t.Fatalf("one extra hop: verdict %s, want regressed", d.Verdict)
	}
	base, cur := report(), report()
	base.BucketCycles = append(base.BucketCycles, obs.NamedSeries{Name: "pf_overhead", Values: []uint64{3}})
	cur.BucketCycles = append(cur.BucketCycles, obs.NamedSeries{Name: "pf_overhead", Values: []uint64{6}})
	d := Compare(base, cur)
	if d.Verdict != Regressed || len(d.Regressions) != 1 || d.Regressions[0] != "bucket/pf_overhead" {
		t.Fatalf("sliver bucket: verdict %s, regressions %v; want regressed, [bucket/pf_overhead]", d.Verdict, d.Regressions)
	}
}

func TestHistShiftAndQuantiles(t *testing.T) {
	var a, b obs.Hist
	for i := 0; i < 100; i++ {
		a.Observe(100)
		b.Observe(100)
	}
	if s := Shift(&a, &b); s != 0 {
		t.Fatalf("identical hists shift %v, want 0", s)
	}
	var c obs.Hist
	for i := 0; i < 100; i++ {
		c.Observe(200) // exactly one log2 bucket up
	}
	if s := Shift(&a, &c); s != 1 {
		t.Fatalf("one-bucket move shift %v, want 1", s)
	}
	var empty obs.Hist
	if s := Shift(&a, &empty); s != 0 {
		t.Fatalf("empty side shift %v, want 0", s)
	}

	base, cur := report(), report()
	cur.Hists[0].Hist = c
	d := Compare(base, cur)
	var hd *HistDelta
	for i := range d.Hists {
		if d.Hists[i].Name == "read_miss/remote" {
			hd = &d.Hists[i]
		}
	}
	if hd == nil {
		t.Fatal("histogram missing from diff")
	}
	if hd.ShiftVerdict != Regressed || hd.Verdict != Regressed {
		t.Fatalf("upward distribution move: shift=%s overall=%s", hd.ShiftVerdict, hd.Verdict)
	}
}

func TestHistOnlyOnOneSide(t *testing.T) {
	cur := report()
	var h obs.Hist
	h.Observe(64)
	cur.Hists = append(cur.Hists, obs.NamedHist{Name: "sync/remote", Hist: h})
	d := Compare(report(), cur)
	var hd *HistDelta
	for i := range d.Hists {
		if d.Hists[i].Name == "sync/remote" {
			hd = &d.Hists[i]
		}
	}
	if hd == nil || hd.Note != "only in new report" {
		t.Fatalf("one-sided hist: %+v", hd)
	}
	if hd.Verdict != Regressed { // count 0 -> 1 is an appearance of cost
		t.Fatalf("appearance verdict %s, want regressed", hd.Verdict)
	}
}

func TestTimelineDivergence(t *testing.T) {
	cur := report()
	// Proc 1 flips half its busy time into sync: 25-point divergence.
	cur.Tracks[1].Segments = []obs.Segment{{0, 0, 2500}, {4, 2500, 7500}}
	d := Compare(report(), cur)
	if d.Timeline == nil {
		t.Fatal("timeline not compared")
	}
	if d.Timeline.Verdict != Regressed || d.Timeline.WorstProc != 1 {
		t.Fatalf("timeline: %+v", d.Timeline)
	}
	if d.Timeline.MaxPts != 25 {
		t.Fatalf("max divergence %v pts, want 25", d.Timeline.MaxPts)
	}
}

func TestProcCountMismatchSkipsTimeline(t *testing.T) {
	cur := report()
	cur.Procs = 4
	d := Compare(report(), cur)
	if d.Timeline != nil {
		t.Fatalf("timelines compared across proc counts: %+v", d.Timeline)
	}
	// The processor count is informational: a note, not a verdict.
	if d.Verdict != Identical || d.Procs.Verdict != "" {
		t.Fatalf("verdict %s, procs verdict %q; want identical and none", d.Verdict, d.Procs.Verdict)
	}
	if len(d.Notes) == 0 || !strings.Contains(d.Notes[0], "processor counts differ (2 vs 4)") {
		t.Fatalf("no note about differing processor counts: %v", d.Notes)
	}
}

func TestSpanStrideMismatchNoted(t *testing.T) {
	cur := report()
	cur.Spans.Every = 64
	d := Compare(report(), cur)
	for _, m := range d.Counters {
		if m.Name == "spans_sampled" {
			t.Fatal("sampled span counts compared across strides")
		}
	}
	found := false
	for _, n := range d.Notes {
		if strings.Contains(n, "stride") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no stride note: %v", d.Notes)
	}
}

func TestWaterfallDominantFlip(t *testing.T) {
	cur := report()
	cur.Waterfall.Total[0].Dominant = "dir"
	d := Compare(report(), cur)
	// The stall cycles did not move, so the flip is a note, not a verdict.
	if d.Verdict != Identical {
		t.Fatalf("dominant flip verdict %s, want identical", d.Verdict)
	}
	if want := "stall/read: dominant source network -> dir at equal stall cycles"; len(d.Notes) != 1 || d.Notes[0] != want {
		t.Fatalf("notes %q, want [%q]", d.Notes, want)
	}
}

func TestInvalDrift(t *testing.T) {
	cur := report()
	cur.Waterfall.Inval.Spurious = 9
	d := Compare(report(), cur)
	if d.Inval == nil || d.Inval.Verdict != Regressed {
		t.Fatalf("inval: %+v", d.Inval)
	}
	found := false
	for _, r := range d.Regressions {
		if r == "inval/spurious" {
			found = true
		}
	}
	if !found {
		t.Fatalf("regressions %v do not name inval/spurious", d.Regressions)
	}
}

func TestDeterministicJSON(t *testing.T) {
	cur := report()
	cur.BucketCycles[0].Values[1] += 777
	cur.DirTxns = append(cur.DirTxns, obs.NamedSeries{Name: "writeback", Values: []uint64{4}})
	var docs [][]byte
	for i := 0; i < 3; i++ {
		d := Compare(report(), cur)
		j, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, j)
	}
	if !bytes.Equal(docs[0], docs[1]) || !bytes.Equal(docs[1], docs[2]) {
		t.Fatal("diff JSON not deterministic across runs")
	}
}

func TestRenderNilSafe(t *testing.T) {
	var d *Diff
	var buf bytes.Buffer
	d.Render(&buf) // must not panic
	if buf.Len() == 0 {
		t.Fatal("nil render produced nothing")
	}
}

func renderString(d *Diff) string {
	var b bytes.Buffer
	d.Render(&b)
	return b.String()
}
