package machine_test

import (
	"encoding/json"
	"reflect"
	"testing"

	"latsim/internal/apps/lu"
	"latsim/internal/config"
	"latsim/internal/machine"
	"latsim/internal/obs"
	"latsim/internal/obs/span"
	"latsim/internal/stats"
)

func runSpans(t *testing.T, cfg config.Config, rate float64) *machine.Result {
	t.Helper()
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.EnableObs(obs.Options{SpanRate: rate})
	res, err := m.Run(lu.New(lu.Scaled(24)))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSpanZeroPerturbation extends the recorder's core contract to the
// span tracer: sampling every transaction must change neither the
// simulated timing nor the kernel event count, across every protocol
// variant the spans thread through.
func TestSpanZeroPerturbation(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(*config.Config)
	}{
		{"SC", nil},
		{"RC-4ctx", func(c *config.Config) { c.Model = config.RC; c.Contexts = 4 }},
		{"RC-pf", func(c *config.Config) { c.Model = config.RC; c.Prefetch = true }},
		{"mesh", func(c *config.Config) { c.MeshNetwork = true }},
		{"nocache", func(c *config.Config) { c.CacheShared = false }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			off := runObs(t, obsCfg(tc.mut), false)
			on := runSpans(t, obsCfg(tc.mut), 1)
			if off.Elapsed != on.Elapsed {
				t.Errorf("spans changed timing: %d vs %d cycles", off.Elapsed, on.Elapsed)
			}
			if off.Events != on.Events {
				t.Errorf("spans changed event count: %d vs %d", off.Events, on.Events)
			}
			if on.Obs.Spans == nil || on.Obs.Spans.Sampled == 0 {
				t.Fatal("rate-1 run sampled no transactions")
			}
			if on.Obs.Spans.Sampled != on.Obs.Spans.Seen {
				t.Errorf("rate 1 sampled %d of %d transactions",
					on.Obs.Spans.Sampled, on.Obs.Spans.Seen)
			}
		})
	}
}

// TestSpanWaterfallReconciles is the analyzer's accounting contract: per
// stall bucket, the attributed segment shares must sum exactly to the
// stall cycles the stats subsystem charged, machine-wide and per
// processor.
func TestSpanWaterfallReconciles(t *testing.T) {
	cfg := obsCfg(func(c *config.Config) { c.Model = config.RC; c.Contexts = 2 })
	res := runSpans(t, cfg, 1)
	w := res.Obs.Waterfall
	if w == nil {
		t.Fatal("no waterfall on a span-traced run")
	}

	stall := func(p int, bucket string) uint64 {
		b := map[string]stats.Bucket{
			"read": stats.ReadStall, "write": stats.WriteStall,
			"sync": stats.SyncStall, "pf_overhead": stats.PrefetchOverhead,
		}[bucket]
		return uint64(res.Procs[p].Time[b])
	}
	checkBucket := func(bw span.BucketWaterfall, want uint64, scope string) {
		if bw.StallCycles != want {
			t.Errorf("%s %q: waterfall says %d stall cycles, stats say %d",
				scope, bw.Bucket, bw.StallCycles, want)
		}
		var attributed uint64
		for _, s := range bw.Segments {
			attributed += s.Attributed
		}
		if attributed != bw.StallCycles {
			t.Errorf("%s %q: shares sum to %d, want exactly %d",
				scope, bw.Bucket, attributed, bw.StallCycles)
		}
		if bw.StallCycles > 0 && bw.Dominant == "" {
			t.Errorf("%s %q: stalls but no dominant category", scope, bw.Bucket)
		}
	}

	sawRead := false
	for _, bw := range w.Total {
		var want uint64
		for p := range res.Procs {
			want += stall(p, bw.Bucket)
		}
		checkBucket(bw, want, "total")
		sawRead = sawRead || bw.Bucket == "read"
	}
	if !sawRead {
		t.Error("no read bucket in the waterfall (LU misses reads?)")
	}
	for _, pw := range w.Procs {
		for _, bw := range pw.Buckets {
			checkBucket(bw, stall(pw.Proc, bw.Bucket), "proc")
		}
	}
}

// TestSpanDeterministicAcrossRuns re-runs one configuration and requires
// bit-identical span traces and waterfalls: record order and every ID
// must be a pure function of the simulated event order.
func TestSpanDeterministicAcrossRuns(t *testing.T) {
	cfg := obsCfg(func(c *config.Config) { c.MeshNetwork = true })
	a := runSpans(t, cfg, 1.0/8)
	b := runSpans(t, cfg, 1.0/8)
	if !reflect.DeepEqual(a.Obs.Spans, b.Obs.Spans) {
		t.Error("span traces differ across identical runs")
	}
	if !reflect.DeepEqual(a.Obs.Waterfall, b.Obs.Waterfall) {
		aj, _ := json.Marshal(a.Obs.Waterfall)
		bj, _ := json.Marshal(b.Obs.Waterfall)
		t.Errorf("waterfalls differ across identical runs:\n%.300s\nvs\n%.300s", aj, bj)
	}
}

// TestSpanTraceRoundTrips pushes a span-carrying report through JSON (the
// runner's persistent cache path) and requires it back unchanged —
// kinds encode as names, so the round trip exercises their decoder.
func TestSpanTraceRoundTrips(t *testing.T) {
	rep := runSpans(t, obsCfg(nil), 1.0/4).Obs
	bts, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back obs.Report
	if err := json.Unmarshal(bts, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep.Spans, back.Spans) {
		t.Error("span trace does not round-trip through JSON")
	}
	if !reflect.DeepEqual(rep.Waterfall, back.Waterfall) {
		t.Error("waterfall does not round-trip through JSON")
	}
}

// BenchmarkRunSpansOn is BenchmarkRunObsOn plus span tracing at the
// default 1/64 sample rate; the budget is ~20% over the obs-only run.
// `go test -bench 'RunObs|RunSpansOn' -benchtime 3x -benchmem ./internal/machine`
// measures the delta.
func BenchmarkRunSpansOn(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, err := machine.New(config.Default())
		if err != nil {
			b.Fatal(err)
		}
		m.EnableObs(obs.Options{SpanRate: 1.0 / 64})
		if _, err := m.Run(lu.New(lu.Scaled(96))); err != nil {
			b.Fatal(err)
		}
	}
}
