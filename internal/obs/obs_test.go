package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"latsim/internal/obs/span"
	"latsim/internal/sim"
	"latsim/internal/stats"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

func TestHistObserve(t *testing.T) {
	var h Hist
	for _, v := range []uint64{4, 5, 6, 7, 100} {
		h.Observe(v)
	}
	if h.Count != 5 || h.Sum != 122 || h.Min != 4 || h.Max != 100 {
		t.Fatalf("count/sum/min/max = %d/%d/%d/%d", h.Count, h.Sum, h.Min, h.Max)
	}
	// 4..7 have bit length 3, 100 has bit length 7.
	if h.Buckets[3] != 4 || h.Buckets[7] != 1 {
		t.Errorf("buckets = %v", h.Buckets[:8])
	}
	// Zero lands in bucket 0 and becomes the minimum.
	h.Observe(0)
	if h.Min != 0 || h.Buckets[0] != 1 {
		t.Errorf("after Observe(0): min = %d, bucket0 = %d", h.Min, h.Buckets[0])
	}
}

func TestHistQuantiles(t *testing.T) {
	var h Hist
	if h.Quantile(0.5) != 0 || h.Mean() != 0 {
		t.Error("empty histogram should report zeros")
	}
	for v := uint64(1); v <= 100; v++ {
		h.Observe(v)
	}
	if got := h.Mean(); got != 50.5 {
		t.Errorf("mean = %v", got)
	}
	if got := h.Quantile(0); got != 1 {
		t.Errorf("q0 = %v, want min", got)
	}
	if got := h.Quantile(1); got != 100 {
		t.Errorf("q1 = %v, want max", got)
	}
	// Quantiles are log-bucket estimates: only require monotonicity and
	// the clamped range.
	prev := 0.0
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		v := h.Quantile(q)
		if v < prev || v < 1 || v > 100 {
			t.Errorf("q%.2f = %v (prev %v)", q, v, prev)
		}
		prev = v
	}
	// A single observation reports itself at every quantile.
	var one Hist
	one.Observe(42)
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := one.Quantile(q); got != 42 {
			t.Errorf("single-value q%.2f = %v", q, got)
		}
	}
}

func TestAccountTilesAndSpreads(t *testing.T) {
	k := sim.NewKernel()
	r := NewRecorder(k, 2, Options{Interval: 100})

	// Proc 0: 250 cycles busy then 50 read — crosses interval boundaries.
	r.Account(0, stats.Busy, 250)
	r.Account(0, stats.ReadStall, 50)
	// Proc 1: two contiguous busy spans must merge into one segment.
	r.Account(1, stats.Busy, 30)
	r.Account(1, stats.Busy, 20)

	rep := r.Finish(300)
	if got := rep.Series(stats.Busy.String()); !reflect.DeepEqual(got, []uint64{150, 100, 50}) {
		t.Errorf("busy series = %v", got)
	}
	if got := rep.Series(stats.ReadStall.String()); !reflect.DeepEqual(got, []uint64{0, 0, 50}) {
		t.Errorf("read series = %v", got)
	}

	want := []Track{
		{Proc: 0, Segments: []Segment{
			{uint64(stats.Busy), 0, 250}, {uint64(stats.ReadStall), 250, 50},
		}},
		{Proc: 1, Segments: []Segment{{uint64(stats.Busy), 0, 50}}},
	}
	if !reflect.DeepEqual(rep.Tracks, want) {
		t.Errorf("tracks = %+v, want %+v", rep.Tracks, want)
	}

	// Each processor's segments must tile its timeline: contiguous from 0.
	for _, tr := range rep.Tracks {
		var cursor uint64
		for _, s := range tr.Segments {
			if s[1] != cursor {
				t.Errorf("proc %d: segment starts at %d, cursor %d", tr.Proc, s[1], cursor)
			}
			cursor = s[1] + s[2]
		}
	}
}

func TestSegmentCapIsNotSilent(t *testing.T) {
	k := sim.NewKernel()
	r := NewRecorder(k, 1, Options{})
	// Alternating buckets never merge, so every call is one segment, and
	// the last, a busy one, is over the cap: dropped from the timeline...
	for i := 0; i <= DefaultMaxSegments; i++ {
		b := stats.Busy
		if i%2 == 1 {
			b = stats.ReadStall
		}
		r.Account(0, b, 10)
	}
	rep := r.Finish(10 * (DefaultMaxSegments + 1))
	if rep.SegmentsDropped != 1 {
		t.Errorf("dropped = %d", rep.SegmentsDropped)
	}
	if n := len(rep.Tracks[0].Segments); n != DefaultMaxSegments {
		t.Errorf("segments = %d", n)
	}
	// ...but the time series still records the cycles.
	var busy uint64
	for _, v := range rep.Series(stats.Busy.String()) {
		busy += v
	}
	if want := uint64(10 * (DefaultMaxSegments/2 + 1)); busy != want {
		t.Errorf("busy cycles = %d, want %d", busy, want)
	}
}

func TestKernelEventDeltas(t *testing.T) {
	k := sim.NewKernel()
	r := NewRecorder(k, 1, Options{Interval: 10})
	for i := 0; i < 5; i++ {
		k.AfterActor(sim.Time(i), sim.Func(func() {}))
	}
	k.Run(nil)
	r.Account(0, stats.Busy, 5) // samples events=5 into interval 0
	rep := r.Finish(25)
	var total uint64
	for _, v := range rep.KernelEvents {
		total += v
	}
	if total != 5 {
		t.Errorf("kernel event deltas sum to %d, want 5", total)
	}
	if len(rep.KernelEvents) != 3 {
		t.Errorf("intervals = %d, want 3", len(rep.KernelEvents))
	}
}

func TestMissHistsSplitLocality(t *testing.T) {
	k := sim.NewKernel()
	r := NewRecorder(k, 1, Options{})
	r.Miss(ReadMiss, true, 26)
	r.Miss(ReadMiss, false, 72)
	r.Miss(SyncOp, false, 500)
	rep := r.Finish(100)
	if h := rep.Hist("read_miss/local"); h == nil || h.Count != 1 || h.Max != 26 {
		t.Errorf("read_miss/local = %+v", h)
	}
	if h := rep.Hist("read_miss/remote"); h == nil || h.Max != 72 {
		t.Errorf("read_miss/remote = %+v", h)
	}
	if h := rep.Hist("sync/remote"); h == nil || h.Count != 1 {
		t.Errorf("sync/remote = %+v", h)
	}
	if h := rep.Hist("write_miss/local"); h != nil {
		t.Errorf("empty histogram exported: %+v", h)
	}
}

func TestMeshLinksSortedAndCounted(t *testing.T) {
	k := sim.NewKernel()
	r := NewRecorder(k, 1, Options{})
	r.MeshHop(1, 0)
	r.MeshHop(0, 1)
	r.MeshHop(0, 1)
	rep := r.Finish(10)
	want := []LinkCount{{From: 0, To: 1, Count: 2}, {From: 1, To: 0, Count: 1}}
	if !reflect.DeepEqual(rep.MeshLinks, want) {
		t.Errorf("links = %+v", rep.MeshLinks)
	}
	if len(rep.MeshHops) == 0 || rep.MeshHops[0] != 3 {
		t.Errorf("hops = %v", rep.MeshHops)
	}
}

// goldenReport builds a small fully deterministic report used by the
// golden-file and artifact tests.
func goldenReport() *Report {
	k := sim.NewKernel()
	r := NewRecorder(k, 2, Options{Interval: 64})
	r.Account(0, stats.Busy, 100)
	r.Account(0, stats.ReadStall, 30)
	r.Account(0, stats.Busy, 20)
	r.Account(1, stats.Busy, 80)
	r.Account(1, stats.SyncStall, 70)
	r.Switch(0)
	r.WBDepth(0, 3)
	r.WBDepth(1, 1)
	r.DirTxn(DirRead)
	r.DirTxn(DirRead)
	r.DirTxn(DirInval)
	r.MeshHop(0, 1)
	r.Miss(ReadMiss, true, 26)
	r.Miss(ReadMiss, false, 72)
	r.Miss(WriteMiss, false, 64)
	return r.Finish(150)
}

func TestChromeTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenReport().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}

	// The export must be valid JSON with the trace_event envelope.
	var tr struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		OtherData   map[string]any   `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if len(tr.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}
	phases := map[string]int{}
	for _, ev := range tr.TraceEvents {
		ph, _ := ev["ph"].(string)
		phases[ph]++
		switch ph {
		case "M", "X", "C":
		default:
			t.Errorf("unexpected event phase %q: %v", ph, ev)
		}
	}
	if phases["M"] == 0 || phases["X"] == 0 || phases["C"] == 0 {
		t.Errorf("phase counts = %v; want metadata, complete and counter events", phases)
	}
	if tr.OtherData["time_unit"] != "1us = 1 cycle" {
		t.Errorf("otherData = %v", tr.OtherData)
	}

	golden := filepath.Join("testdata", "golden.trace.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("Chrome trace drifted from golden file; run 'go test ./internal/obs -run Golden -update' if intentional.\ngot:  %s", buf.Bytes())
	}
}

// goldenSpanReport extends the golden report with a sampled transaction:
// a remote-dirty read whose reply crosses the requester's node, plus an
// overlapping invalidation child, exercising every flow-event shape.
func goldenSpanReport() *Report {
	k := sim.NewKernel()
	r := NewRecorder(k, 2, Options{Interval: 64, SpanRate: 1})
	sp := r.Spans.Start(span.KTxnRead, 0)
	sp.Seg(span.KSegLookup, 0)
	k.RunUntil(7)
	sp.Seg(span.KSegNet, 0)
	k.RunUntil(30)
	sp.Seg(span.KSegDir, 1)
	iv := sp.Child(span.KSegInval, 1)
	k.RunUntil(41)
	iv.End()
	sp.Seg(span.KSegReply, 1)
	k.RunUntil(64)
	sp.Seg(span.KSegFill, 0)
	k.RunUntil(72)
	sp.End()
	r.Account(0, stats.Busy, 50)
	r.Account(0, stats.ReadStall, 72)
	r.Miss(ReadMiss, false, 72)
	rep := r.Finish(150)
	rep.Waterfall = span.Attribute(rep.Spans, []span.ProcStalls{{Proc: 0, Read: 72}})
	return rep
}

// TestChromeTraceSpanGolden locks down the flow-event export: the trace
// must stay Perfetto-loadable JSON carrying async span events and flow
// arrows, byte-identical to the golden file.
func TestChromeTraceSpanGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenSpanReport().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	phases := map[string]int{}
	for _, ev := range tr.TraceEvents {
		ph, _ := ev["ph"].(string)
		phases[ph]++
	}
	// One async begin/end pair for the root, a flow start and finish (and
	// at least one step) joining the segment chain.
	for _, ph := range []string{"b", "e", "s", "t", "f"} {
		if phases[ph] == 0 {
			t.Errorf("no %q events in span trace; phases = %v", ph, phases)
		}
	}

	golden := filepath.Join("testdata", "golden_span.trace.json")
	if *updateGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("span trace drifted from golden file; run 'go test ./internal/obs -run Golden -update' if intentional.\ngot:  %s", buf.Bytes())
	}
}

// TestReadReportVersionSkew: every past schema version (including the
// version-less pre-v4 format) stays readable; anything newer than this
// binary is refused with an error that names the supported range, never
// decoded into a zero-value report.
func TestReadReportVersionSkew(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		name   string
		schema int // -1 = omit the schema_version field entirely
		ok     bool
	}{
		{"pre-v4-unversioned", -1, true},
		{"v1", 1, true},
		{"v2", 2, true},
		{"v3", 3, true},
		{"v4", 4, true},
		{"current", ReportSchema, true},
		{"next", ReportSchema + 1, false},
		{"far-future", 999, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			body := `{"interval":64,"elapsed":1,"procs":1}`
			if c.schema >= 0 {
				body = fmt.Sprintf(`{"schema_version":%d,"interval":64,"elapsed":1,"procs":1}`, c.schema)
			}
			path := filepath.Join(dir, c.name+".report.json")
			if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
			rep, err := ReadReport(path)
			if c.ok {
				if err != nil {
					t.Fatalf("schema %d refused: %v", c.schema, err)
				}
				if rep.Interval != 64 {
					t.Fatalf("schema %d decoded as %+v", c.schema, rep)
				}
				return
			}
			if err == nil {
				t.Fatalf("schema %d accepted", c.schema)
			}
			for _, want := range []string{
				fmt.Sprintf("schema version %d", c.schema),
				fmt.Sprintf("0 (pre-v4) through %d", ReportSchema),
			} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error does not name %q: %v", want, err)
				}
			}
		})
	}
}

// Compact must keep every aggregate the diff engine reads while
// dropping the bulk payloads, and survive nil/absent fields.
func TestReportCompact(t *testing.T) {
	rep := goldenReport()
	hadTracks, hadLinks := len(rep.Tracks) > 0, len(rep.MeshLinks) > 0
	if !hadTracks || !hadLinks {
		t.Fatalf("golden report too bare for this test: tracks=%v links=%v", hadTracks, hadLinks)
	}
	elapsed, nHists := rep.Elapsed, len(rep.Hists)
	c := rep.Compact()
	if c != rep {
		t.Fatal("Compact did not return its receiver")
	}
	if c.Tracks != nil || c.MeshLinks != nil {
		t.Fatalf("bulk payloads survived: tracks=%d links=%d", len(c.Tracks), len(c.MeshLinks))
	}
	if c.Elapsed != elapsed || len(c.Hists) != nHists || len(c.BucketCycles) == 0 {
		t.Fatal("Compact dropped aggregate fields")
	}
	var nilRep *Report
	if nilRep.Compact() != nil {
		t.Fatal("nil Compact not nil")
	}
}

func TestArtifactsRoundTrip(t *testing.T) {
	rep := goldenReport()
	dir := t.TempDir()
	repPath, trPath, err := rep.WriteArtifacts(dir, "LU_RC-4ctx/16")
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(repPath) != "LU_RC-4ctx_16.report.json" {
		t.Errorf("report path not sanitized: %s", repPath)
	}
	if _, err := os.Stat(trPath); err != nil {
		t.Errorf("trace artifact missing: %v", err)
	}
	got, err := ReadReport(repPath)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rep) {
		t.Error("report does not round-trip exactly through JSON")
	}
}

func TestSummaryRenders(t *testing.T) {
	var buf bytes.Buffer
	goldenReport().Summary(&buf)
	for _, want := range []string{"read_miss/local", "directory txns: 3", "mesh: 1 hops", "timeline:"} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("summary missing %q:\n%s", want, buf.String())
		}
	}
}
