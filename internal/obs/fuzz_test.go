package obs_test

import (
	"io"
	"os"
	"path/filepath"
	"testing"

	"latsim/internal/obs"
	"latsim/internal/obs/diff"
	"latsim/internal/obs/span"
)

// FuzzReadReport: latsim -from and obsdiff decode report files from
// outside the program. A report DecodeReport accepts must render, export,
// compact and diff against itself without a panic, and the
// self-comparison must judge identical. The seeds are the committed
// baselines, which are compacted, and one small report that keeps the
// bulk payloads (timelines, mesh links, spans).
func FuzzReadReport(f *testing.F) {
	seeds, err := filepath.Glob(filepath.Join("..", "..", "testdata", "baselines", "*.report.json"))
	if err != nil || len(seeds) == 0 {
		f.Fatalf("no baseline seeds: %v", err)
	}
	for _, path := range seeds {
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	full, err := obs.EncodeReport(&obs.Report{
		Schema: obs.ReportSchema, Interval: 64, Elapsed: 100, Procs: 2,
		BucketCycles: []obs.NamedSeries{{Name: "busy", Values: []uint64{60, 40}}},
		KernelEvents: []uint64{5, 3},
		MeshHops:     []uint64{1, 0},
		MeshLinks:    []obs.LinkCount{{From: 0, To: 1, Count: 1}},
		Tracks:       []obs.Track{{Proc: 0, Segments: []obs.Segment{{0, 0, 60}, {2, 60, 40}}}, {Proc: 1}},
		Spans: &span.Trace{Every: 1, Seen: 1, Sampled: 1, Spans: []span.Rec{
			{ID: 1, Kind: span.KTxnRead, Dur: 30},
			{ID: 2, Parent: 1, Kind: span.KSegLookup, Dur: 7},
			{ID: 3, Parent: 1, Kind: span.KSegNet, Node: 1, Start: 7, Dur: 23},
		}},
		Waterfall: &span.Waterfall{Total: []span.BucketWaterfall{{Bucket: "read", StallCycles: 40, Dominant: "network"}}},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(full)
	// A segment bucket past int64 must not index the bucket names negatively.
	f.Add([]byte(`{"interval":64,"elapsed":1,"procs":1,"tracks":[{"proc":0,"segments":[[9223372036854775808,0,1]]}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		rep, err := obs.DecodeReport(data)
		if err != nil {
			return
		}
		rep.Summary(io.Discard)
		if err := rep.WriteChromeTrace(io.Discard); err != nil {
			t.Fatal(err)
		}
		if d := diff.Compare(rep, rep); d.Verdict != diff.Identical {
			t.Fatalf("report judged %s against itself: %v", d.Verdict, d.Regressions)
		}
		if d := diff.Compare(rep.Compact(), rep); d.Verdict != diff.Identical {
			t.Fatalf("compacted report judged %s against itself: %v", d.Verdict, d.Regressions)
		}
	})
}
