// Benchmarks: one per table and figure of the paper, plus the ablations
// from DESIGN.md. Each benchmark regenerates its artifact at the reduced
// "small" scale (same workload structure as the paper's data sets) and
// reports the headline shape numbers as custom metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the entire evaluation. Absolute cycle counts are this
// simulator's, not the authors' testbed's; the metrics to compare with the
// paper are the ratios (speedups) and breakdown shapes, recorded in
// EXPERIMENTS.md.
package latsim_test

import (
	"runtime"
	"testing"

	"latsim/internal/core"
	"latsim/internal/stats"
)

func newSession() *core.Session { return core.NewSession(core.ScaleSmall) }

func BenchmarkTable1Latencies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := core.Table1()
		if err != nil {
			b.Fatal(err)
		}
		exact := 0
		for _, r := range rows {
			if r.Measured == r.Paper {
				exact++
			}
		}
		b.ReportMetric(float64(exact), "rows-exact")
		b.ReportMetric(float64(len(rows)), "rows-total")
	}
}

func BenchmarkTable2Stats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := newSession()
		rows, err := s.Table2()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(float64(r.UsefulKCyc), r.App+"-busyK")
		}
	}
}

func BenchmarkFig2Caching(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := newSession()
		f, err := s.Figure("fig2")
		if err != nil {
			b.Fatal(err)
		}
		for _, app := range core.AppNames {
			bars := f.Bars[app]
			b.ReportMetric(bars[0].Total/bars[1].Total, app+"-speedup")
		}
	}
}

func BenchmarkFig3Consistency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := newSession()
		f, err := s.Figure("fig3")
		if err != nil {
			b.Fatal(err)
		}
		for _, app := range core.AppNames {
			bars := f.Bars[app]
			b.ReportMetric(bars[0].Total/bars[1].Total, app+"-RC-speedup")
		}
	}
}

func BenchmarkFig4Prefetch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := newSession()
		f, err := s.Figure("fig4")
		if err != nil {
			b.Fatal(err)
		}
		for _, app := range core.AppNames {
			bars := f.Bars[app] // SC, SC+pf, RC, RC+pf
			b.ReportMetric(bars[0].Total/bars[1].Total, app+"-SCpf-speedup")
			b.ReportMetric(bars[0].Total/bars[3].Total, app+"-RCpf-speedup")
		}
	}
}

func BenchmarkFig5Contexts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := newSession()
		f, err := s.Figure("fig5")
		if err != nil {
			b.Fatal(err)
		}
		for _, app := range core.AppNames {
			bars := f.Bars[app] // 1ctx, 2/16, 4/16, 2/4, 4/4
			b.ReportMetric(bars[0].Total/bars[4].Total, app+"-4ctx-sw4-speedup")
			b.ReportMetric(bars[0].Total/bars[2].Total, app+"-4ctx-sw16-speedup")
		}
	}
}

func BenchmarkFig6Combined(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := newSession()
		f, err := s.Figure("fig6")
		if err != nil {
			b.Fatal(err)
		}
		for _, app := range core.AppNames {
			bars := f.Bars[app] // SCx3, RCx3, RC+pf x3
			b.ReportMetric(bars[0].Total/bars[5].Total, app+"-RC4ctx-speedup")
			b.ReportMetric(bars[0].Total/bars[6].Total, app+"-RCpf-speedup")
		}
	}
}

func BenchmarkHitRates(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := newSession()
		rows, err := s.HitRates()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(100*r.ReadHitRate, r.App+"-read-hit%")
			b.ReportMetric(100*r.WriteHitRate, r.App+"-write-hit%")
		}
	}
}

func BenchmarkSummarySpeedups(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := newSession()
		rows, err := s.Summary()
		if err != nil {
			b.Fatal(err)
		}
		for app, v := range core.BestSpeedups(rows) {
			b.ReportMetric(v, app+"-best-speedup")
		}
	}
}

func BenchmarkFullCacheAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := newSession()
		a, err := s.Ablation("fullcache")
		if err != nil {
			b.Fatal(err)
		}
		byApp := map[string][]core.AblationPoint{}
		for _, p := range a.Points {
			byApp[p.App] = append(byApp[p.App], p)
		}
		for app, ps := range byApp {
			b.ReportMetric(float64(ps[0].Total)/float64(ps[1].Total), app+"-fullcache-speedup")
		}
	}
}

func BenchmarkAblationWriteBuffer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := newSession()
		if _, err := s.Ablation("wbuf"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationSwitchPenalty(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := newSession()
		if _, err := s.Ablation("switch"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationNetworkLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := newSession()
		if _, err := s.Ablation("network"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationWritePipelining(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := newSession()
		if _, err := s.Ablation("owrites"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorThroughput measures raw simulation speed (simulated
// cycles per wall second) on the LU kernel — the simulator's own
// performance, independent of the paper.
func BenchmarkSimulatorThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := newSession()
		res, err := s.Run("LU", core.Base())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Events), "sim-events")
		b.ReportMetric(float64(res.Elapsed), "sim-cycles")
		_ = stats.Busy
	}
}

func BenchmarkConsistencySpectrum(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := newSession()
		f, err := s.Figure("spectrum")
		if err != nil {
			b.Fatal(err)
		}
		for _, app := range core.AppNames {
			bars := f.Bars[app] // SC, PC, WC, RC
			b.ReportMetric(bars[0].Total/bars[1].Total, app+"-PC-speedup")
			b.ReportMetric(bars[0].Total/bars[2].Total, app+"-WC-speedup")
		}
	}
}

func BenchmarkAblationAssociativity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := newSession()
		if _, err := s.Ablation("assoc"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationExclusiveGrant(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := newSession()
		if _, err := s.Ablation("egrant"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScalingSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := newSession()
		pts, err := s.ScalingSweep()
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range pts {
			if p.Procs == 16 {
				b.ReportMetric(p.Speedup, p.App+"-16p-speedup")
			}
		}
	}
}

func BenchmarkPrefetchCoverage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := newSession()
		rows, err := s.PrefetchCoverage()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(100*r.Coverage, r.App+"-coverage%")
		}
	}
}

func BenchmarkAblationMeshTopology(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := newSession()
		if _, err := s.Ablation("mesh"); err != nil {
			b.Fatal(err)
		}
	}
}

// regenFigures rebuilds Figures 2-6 through one session (the runner
// parallelizes the underlying jobs and dedups shared baselines).
func regenFigures(b *testing.B, s *core.Session) {
	b.Helper()
	for _, id := range []string{"fig2", "fig3", "fig4", "fig5", "fig6"} {
		if _, err := s.Figure(id); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunnerSequential regenerates fig2-fig6 with a single worker
// (the pre-runner behavior: strictly sequential simulation).
func BenchmarkRunnerSequential(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := newSession()
		s.Jobs = 1
		regenFigures(b, s)
		s.Close()
	}
}

// BenchmarkRunnerParallel is the same regeneration with a full worker
// pool; compare ns/op against BenchmarkRunnerSequential on a multi-core
// host to see the engine's wall-clock win.
func BenchmarkRunnerParallel(b *testing.B) {
	workers := runtime.GOMAXPROCS(0)
	for i := 0; i < b.N; i++ {
		s := newSession()
		s.Jobs = workers
		regenFigures(b, s)
		s.Close()
	}
	b.ReportMetric(float64(workers), "workers")
}

// BenchmarkRunnerCacheCold measures Figure 3 regeneration into a fresh
// persistent cache (simulate + serialize).
func BenchmarkRunnerCacheCold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := b.TempDir()
		b.StartTimer()
		s := newSession()
		s.CacheDir = dir
		if _, err := s.Figure("fig3"); err != nil {
			b.Fatal(err)
		}
		s.Close()
	}
}

// BenchmarkRunnerCacheWarm measures Figure 3 regeneration from a warm
// cache: every job is a disk hit, so this is pure load+assembly time.
func BenchmarkRunnerCacheWarm(b *testing.B) {
	dir := b.TempDir()
	seed := newSession()
	seed.CacheDir = dir
	if _, err := seed.Figure("fig3"); err != nil {
		b.Fatal(err)
	}
	seed.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := newSession()
		s.CacheDir = dir
		if _, err := s.Figure("fig3"); err != nil {
			b.Fatal(err)
		}
		if m := s.Metrics(); m.Executed != 0 {
			b.Fatalf("warm run re-simulated %d jobs", m.Executed)
		}
		s.Close()
	}
}
