package core

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"latsim/internal/config"
	"latsim/internal/stats"
)

// Shape assertions: these tests check the paper's qualitative findings at
// small scale, not absolute numbers. Each corresponds to a claim in the
// paper's text.

// sharedSession memoizes every simulation across the shape tests: they
// only read results, so each configuration runs once per test binary.
var sharedSession = sync.OnceValue(func() *Session { return NewSession(ScaleSmall) })

func session(t *testing.T) *Session {
	t.Helper()
	return sharedSession()
}

func TestTable1MatchesPaperExactly(t *testing.T) {
	rows, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Measured != r.Paper {
			t.Errorf("%s: measured %d, paper %d", r.Operation, r.Measured, r.Paper)
		}
	}
}

func TestFigure2CachingImprovesAllApps(t *testing.T) {
	s := session(t)
	f, err := s.Figure("fig2")
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range AppNames {
		bars := f.Bars[app]
		if len(bars) != 2 {
			t.Fatalf("%s: %d bars", app, len(bars))
		}
		nocache, cache := bars[0], bars[1]
		if nocache.Total < 99.9 || nocache.Total > 100.1 {
			t.Errorf("%s: baseline total = %.1f, want 100", app, nocache.Total)
		}
		speedup := nocache.Total / cache.Total
		// Paper: 2.2x to 2.7x; allow a generous band for shape.
		if speedup < 1.3 {
			t.Errorf("%s: caching speedup %.2f too small (paper: 2.2-2.7)", app, speedup)
		}
		// The biggest reduction must come from read-miss time.
		readCut := nocache.Pct[stats.ReadStall] - cache.Pct[stats.ReadStall]
		busyCut := nocache.Pct[stats.Busy] - cache.Pct[stats.Busy]
		if readCut <= busyCut {
			t.Errorf("%s: caching should mainly cut read stalls (read cut %.1f, busy cut %.1f)",
				app, readCut, busyCut)
		}
	}
}

func TestFigure3RCUniformlyImproves(t *testing.T) {
	s := session(t)
	f, err := s.Figure("fig3")
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range AppNames {
		sc, rc := f.Bars[app][0], f.Bars[app][1]
		if rc.Total >= sc.Total {
			t.Errorf("%s: RC (%.1f) not faster than SC (%.1f)", app, rc.Total, sc.Total)
		}
		// RC removes essentially all write-miss stall time.
		if rc.Pct[stats.WriteStall] > sc.Pct[stats.WriteStall]/4 {
			t.Errorf("%s: RC write stall %.1f not close to zero (SC %.1f)",
				app, rc.Pct[stats.WriteStall], sc.Pct[stats.WriteStall])
		}
		// Paper ordering: MP3D and PTHOR gain much more than LU.
	}
	gain := func(app string) float64 { return f.Bars[app][0].Total / f.Bars[app][1].Total }
	if gain("LU") > gain("MP3D") || gain("LU") > gain("PTHOR") {
		t.Errorf("LU should gain least from RC: MP3D %.2f LU %.2f PTHOR %.2f",
			gain("MP3D"), gain("LU"), gain("PTHOR"))
	}
}

func TestFigure4PrefetchingReducesReadStalls(t *testing.T) {
	s := session(t)
	f, err := s.Figure("fig4")
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range AppNames {
		bars := f.Bars[app] // SC, SC+pf, RC, RC+pf
		scN, scP, rcN, rcP := bars[0], bars[1], bars[2], bars[3]
		if scP.Pct[stats.PrefetchOverhead] == 0 || rcP.Pct[stats.PrefetchOverhead] == 0 {
			t.Errorf("%s: prefetch bars missing overhead section", app)
		}
		// Under RC the benefit comes strictly through reduced read
		// latency (paper Section 5.2); prefetching must help RC for
		// the regular applications.
		if app != "PTHOR" {
			if rcP.Total >= rcN.Total {
				t.Errorf("%s: RC+prefetch (%.1f) not faster than RC (%.1f)", app, rcP.Total, rcN.Total)
			}
			if scP.Total >= scN.Total {
				t.Errorf("%s: SC+prefetch (%.1f) not faster than SC (%.1f)", app, scP.Total, scN.Total)
			}
		}
		if rcP.Pct[stats.ReadStall] >= rcN.Pct[stats.ReadStall] {
			t.Errorf("%s: prefetch did not cut RC read stall (%.1f vs %.1f)",
				app, rcP.Pct[stats.ReadStall], rcN.Pct[stats.ReadStall])
		}
	}
}

func TestFigure5ContextsHelpMP3DHurtWithSlowSwitch(t *testing.T) {
	s := session(t)
	f, err := s.Figure("fig5")
	if err != nil {
		t.Fatal(err)
	}
	// Bars: 1ctx, 2/16, 4/16, 2/4, 4/4.
	mp := f.Bars["MP3D"]
	if mp[4].Total >= mp[0].Total {
		t.Errorf("MP3D: 4ctx/sw4 (%.1f) not faster than single context (100)", mp[4].Total)
	}
	if mp[4].Result == nil || mp[4].Result.Procs[0].Switches == 0 {
		t.Error("MP3D: no context switches recorded")
	}
	// Paper: with a 16-cycle switch, LU gets worse as contexts are
	// added; 4 contexts do not beat 2 for PTHOR.
	lu := f.Bars["LU"]
	if lu[2].Total <= lu[1].Total {
		t.Errorf("LU/sw16: 4ctx (%.1f) should be worse than 2ctx (%.1f)", lu[2].Total, lu[1].Total)
	}
	pt := f.Bars["PTHOR"]
	if pt[2].Total <= pt[1].Total {
		t.Errorf("PTHOR/sw16: 4ctx (%.1f) should be worse than 2ctx (%.1f)", pt[2].Total, pt[1].Total)
	}
	// Multi-context bars decompose into the MC buckets, not read/write.
	if mp[1].Pct[stats.ReadStall] != 0 || mp[1].Pct[stats.WriteStall] != 0 {
		t.Error("MC bars should not contain single-context stall buckets")
	}
}

func TestFigure6CombinationsAndBasesConsistent(t *testing.T) {
	s := session(t)
	f, err := s.Figure("fig6")
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range AppNames {
		bars := f.Bars[app] // SC1,SC2,SC4, RC1,RC2,RC4, RCpf1,RCpf2,RCpf4
		if len(bars) != 9 {
			t.Fatalf("%s: %d bars, want 9", app, len(bars))
		}
		// RC with N contexts beats SC with N contexts (paper: relaxing
		// the model helps multiple contexts).
		for i := 0; i < 3; i++ {
			if bars[3+i].Total >= bars[i].Total {
				t.Errorf("%s: RC %dctx (%.1f) not faster than SC %dctx (%.1f)",
					app, i+1, bars[3+i].Total, i+1, bars[i].Total)
			}
		}
	}
}

func TestSummarySpeedupsInPaperBand(t *testing.T) {
	s := session(t)
	rows, err := s.Summary()
	if err != nil {
		t.Fatal(err)
	}
	best := BestSpeedups(rows)
	for _, app := range AppNames {
		// Paper: suitable combinations reach 4x-7x over uncached SC.
		// At small scale the band is wider; require at least 2x and a
		// sane ceiling.
		if best[app] < 1.8 {
			t.Errorf("%s: best combination speedup %.2f too small", app, best[app])
		}
		if best[app] > 20 {
			t.Errorf("%s: best combination speedup %.2f implausible", app, best[app])
		}
	}
}

func TestHitRatesReported(t *testing.T) {
	s := session(t)
	rows, err := s.HitRates()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.ReadHitRate <= 0 || r.ReadHitRate >= 1 {
			t.Errorf("%s: read hit rate %.2f out of range", r.App, r.ReadHitRate)
		}
		if r.WriteHitRate <= 0 || r.WriteHitRate > 1 {
			t.Errorf("%s: write hit rate %.2f out of range", r.App, r.WriteHitRate)
		}
	}
}

func TestFullCacheAblationImprovesAbsoluteTime(t *testing.T) {
	s := session(t)
	a, err := s.Ablation("fullcache")
	if err != nil {
		t.Fatal(err)
	}
	// Points come in (scaled, full) pairs per app.
	byApp := map[string][]AblationPoint{}
	for _, p := range a.Points {
		byApp[p.App] = append(byApp[p.App], p)
	}
	for _, app := range AppNames {
		ps := byApp[app]
		if len(ps) != 2 {
			t.Fatalf("%s: %d points", app, len(ps))
		}
		if app == "PTHOR" {
			// PTHOR's element records are migratory (read-modify-write
			// bounced between processes by work stealing); larger
			// caches keep more stale shared copies alive and pay more
			// invalidations, so the net effect is roughly a wash.
			// Assert it is not significantly worse.
			if float64(ps[1].Total) > 1.10*float64(ps[0].Total) {
				t.Errorf("%s: full caches (%d) much slower than scaled (%d)", app, ps[1].Total, ps[0].Total)
			}
			continue
		}
		if ps[1].Total >= ps[0].Total {
			t.Errorf("%s: full caches (%d) not faster than scaled (%d)", app, ps[1].Total, ps[0].Total)
		}
	}
}

func TestSessionMemoizes(t *testing.T) {
	s := session(t)
	r1, err := s.Run("LU", Base())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.Run("LU", Base())
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Error("identical runs not memoized")
	}
	// Different config must not collide.
	rc := Base()
	rc.Model = config.RC
	r3, err := s.Run("LU", rc)
	if err != nil {
		t.Fatal(err)
	}
	if r3 == r1 {
		t.Error("distinct configs collided in the memo")
	}
}

func TestRenderersProduceOutput(t *testing.T) {
	s := session(t)
	var buf bytes.Buffer

	rows1, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	RenderTable1(&buf, rows1)

	rows2, err := s.Table2()
	if err != nil {
		t.Fatal(err)
	}
	RenderTable2(&buf, rows2)

	f, err := s.Figure("fig2")
	if err != nil {
		t.Fatal(err)
	}
	f.Render(&buf)

	hr, err := s.HitRates()
	if err != nil {
		t.Fatal(err)
	}
	RenderHitRates(&buf, hr)

	sp, err := s.Summary()
	if err != nil {
		t.Fatal(err)
	}
	RenderSummary(&buf, sp)

	out := buf.String()
	for _, want := range []string{"Table 1", "Table 2", "Figure 2", "hit rates", "speedups"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered output missing %q", want)
		}
	}
}

func TestParseScale(t *testing.T) {
	if s, err := ParseScale("paper"); err != nil || s != ScalePaper {
		t.Error("ParseScale(paper) failed")
	}
	if s, err := ParseScale("small"); err != nil || s != ScaleSmall {
		t.Error("ParseScale(small) failed")
	}
	if _, err := ParseScale("huge"); err == nil {
		t.Error("ParseScale(huge) should fail")
	}
}

func TestTable2RowsPopulated(t *testing.T) {
	s := session(t)
	rows, err := s.Table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.UsefulKCyc == 0 || r.SharedReadsK == 0 || r.SharedKB == 0 {
			t.Errorf("%s: empty statistics %+v", r.App, r)
		}
	}
	if rows[0].Locks != 0 {
		t.Error("MP3D should use no locks")
	}
	if rows[1].Locks == 0 || rows[2].Locks == 0 {
		t.Error("LU and PTHOR should use locks")
	}
}

func TestExclusiveGrantAblation(t *testing.T) {
	// The E-grant option must reduce MP3D's write-miss time (reads
	// bring ownership, so the read-modify-write pattern stops paying
	// upgrades).
	s := session(t)
	plain, err := s.Run("MP3D", Base())
	if err != nil {
		t.Fatal(err)
	}
	eg := Base()
	eg.ExclusiveGrant = true
	granted, err := s.Run("MP3D", eg)
	if err != nil {
		t.Fatal(err)
	}
	if granted.Breakdown.Time[stats.WriteStall] >= plain.Breakdown.Time[stats.WriteStall] {
		t.Errorf("exclusive grant did not reduce write stall: %d vs %d",
			granted.Breakdown.Time[stats.WriteStall], plain.Breakdown.Time[stats.WriteStall])
	}
}
