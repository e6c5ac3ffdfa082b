package core

import (
	"bytes"
	"strings"
	"testing"

	"latsim/internal/config"
)

func TestConsistencySpectrumOrdering(t *testing.T) {
	s := session(t)
	f, err := s.Figure("spectrum")
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range AppNames {
		bars := f.Bars[app] // SC, PC, WC, RC
		if len(bars) != 4 {
			t.Fatalf("%s: %d bars", app, len(bars))
		}
		sc, rc := bars[0].Total, bars[3].Total
		if rc >= sc {
			t.Errorf("%s: RC (%.1f) not faster than SC (%.1f)", app, rc, sc)
		}
		for i, mid := range []float64{bars[1].Total, bars[2].Total} {
			if mid > sc*1.02 {
				t.Errorf("%s: intermediate model %d (%.1f) slower than SC (%.1f)", app, i, mid, sc)
			}
			if mid < rc*0.98 {
				t.Errorf("%s: intermediate model %d (%.1f) faster than RC (%.1f)", app, i, mid, rc)
			}
		}
	}
}

func TestAssociativityHelpsLU(t *testing.T) {
	// LU's pivot/owned column pairs conflict in the direct-mapped
	// secondary; 4-way associativity must cut its time.
	s := session(t)
	a, err := s.Ablation("assoc")
	if err != nil {
		t.Fatal(err)
	}
	var lu []AblationPoint
	for _, p := range a.Points {
		if p.App == "LU" {
			lu = append(lu, p)
		}
	}
	if len(lu) != 3 {
		t.Fatalf("LU points = %d", len(lu))
	}
	if lu[2].Total >= lu[0].Total {
		t.Errorf("4-way (%d) not faster than direct-mapped (%d) for LU", lu[2].Total, lu[0].Total)
	}
}

func TestExclusiveGrantAblationHelpsMP3D(t *testing.T) {
	s := session(t)
	a, err := s.Ablation("egrant")
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range []string{"MP3D"} {
		var pts []AblationPoint
		for _, p := range a.Points {
			if p.App == app {
				pts = append(pts, p)
			}
		}
		if pts[1].Total >= pts[0].Total {
			t.Errorf("%s: exclusive grant (%d) not faster than shared grant (%d)",
				app, pts[1].Total, pts[0].Total)
		}
	}
}

func TestScalingSweepSpeedsUp(t *testing.T) {
	s := session(t)
	pts, err := s.ScalingSweep()
	if err != nil {
		t.Fatal(err)
	}
	byApp := map[string][]ScalingPoint{}
	for _, p := range pts {
		byApp[p.App] = append(byApp[p.App], p)
	}
	for _, app := range AppNames {
		ps := byApp[app]
		if len(ps) != 4 {
			t.Fatalf("%s: %d points", app, len(ps))
		}
		// 16 processors must beat 4 processors for every app.
		if ps[2].Speedup <= 1.0 {
			t.Errorf("%s: 16-proc speedup %.2f <= 1", app, ps[2].Speedup)
		}
		// Scaling must be sublinear (these are small data sets).
		if ps[3].Speedup > 8.5 {
			t.Errorf("%s: 32-proc speedup %.2f implausibly high", app, ps[3].Speedup)
		}
	}
}

func TestPrefetchCoverageMeasured(t *testing.T) {
	s := session(t)
	rows, err := s.PrefetchCoverage()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.BaselineMisses == 0 {
			t.Errorf("%s: no baseline misses", r.App)
		}
		if r.Coverage < 0 || r.Coverage > 1 {
			t.Errorf("%s: coverage %.2f out of range", r.App, r.Coverage)
		}
	}
	// MP3D and LU have regular access patterns: issue coverage must be
	// substantial; PTHOR's is known to be hard (paper: 56%).
	for _, r := range rows {
		if (r.App == "MP3D" || r.App == "LU") && r.Coverage < 0.5 {
			t.Errorf("%s: coverage %.0f%% too low (paper ~87-89%%)", r.App, 100*r.Coverage)
		}
		if r.MissReduction < 0 || r.MissReduction > 1 {
			t.Errorf("%s: miss reduction %.2f out of range", r.App, r.MissReduction)
		}
	}
}

func TestAnalyticModelBounds(t *testing.T) {
	s := session(t)
	pts, err := s.AnalyticContexts()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if p.Model <= 0 || p.Model > 1 {
			t.Errorf("%s/%dctx: model efficiency %.2f out of range", p.App, p.Contexts, p.Model)
		}
		if p.Simulated <= 0 || p.Simulated > 1 {
			t.Errorf("%s/%dctx: simulated efficiency %.2f out of range", p.App, p.Contexts, p.Simulated)
		}
		// The model ignores sync and interference, so it should be an
		// upper bound (allow slack for measurement differences).
		if p.Simulated > p.Model*1.6+0.1 {
			t.Errorf("%s/%dctx: simulated %.2f far above model bound %.2f",
				p.App, p.Contexts, p.Simulated, p.Model)
		}
	}
}

func TestExtensionRenderers(t *testing.T) {
	s := session(t)
	var buf bytes.Buffer
	if pts, err := s.ScalingSweep(); err == nil {
		RenderScaling(&buf, pts)
	} else {
		t.Fatal(err)
	}
	if rows, err := s.PrefetchCoverage(); err == nil {
		RenderCoverage(&buf, rows)
	} else {
		t.Fatal(err)
	}
	if pts, err := s.AnalyticContexts(); err == nil {
		RenderAnalytic(&buf, pts)
	} else {
		t.Fatal(err)
	}
	for _, want := range []string{"Scaling sweep", "coverage factor", "analytical model"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("missing %q in rendered extensions", want)
		}
	}
}

func TestPCAndWCConfigsRunAllApps(t *testing.T) {
	s := session(t)
	for _, mdl := range []config.Consistency{config.PC, config.WC} {
		for _, app := range AppNames {
			cfg := Base()
			cfg.Model = mdl
			if _, err := s.Run(app, cfg); err != nil {
				t.Errorf("%s under %v: %v", app, mdl, err)
			}
		}
	}
}

func TestRenderBars(t *testing.T) {
	s := session(t)
	f, err := s.Figure("fig3")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	f.RenderBars(&buf, 50)
	out := buf.String()
	if !strings.Contains(out, "legend:") || !strings.Contains(out, "█") {
		t.Error("bar rendering missing legend or fill glyphs")
	}
	// The baseline SC bar must span the full width; the RC bar must be
	// strictly shorter for at least one app.
	lines := strings.Split(out, "\n")
	var scLen, rcLen int
	for _, ln := range lines {
		if strings.Contains(ln, "SC ") || strings.HasSuffix(strings.TrimSpace(ln), "█") {
			_ = ln
		}
		if strings.Contains(ln, " SC") && strings.ContainsRune(ln, '█') {
			scLen = len([]rune(ln))
		}
		if strings.Contains(ln, " RC") && strings.ContainsRune(ln, '█') && scLen > 0 && rcLen == 0 {
			rcLen = len([]rune(ln))
		}
	}
	if scLen == 0 || rcLen == 0 || rcLen >= scLen {
		t.Errorf("RC bar (%d runes) not shorter than SC bar (%d runes)", rcLen, scLen)
	}
}

func TestMeshAblationRuns(t *testing.T) {
	s := session(t)
	a, err := s.Ablation("mesh")
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Points) != 6 {
		t.Fatalf("points = %d, want 6", len(a.Points))
	}
	for _, p := range a.Points {
		if p.Total == 0 {
			t.Errorf("%s/%s: empty result", p.App, p.Setting)
		}
	}
}

func TestFigureJSON(t *testing.T) {
	s := session(t)
	f, err := s.Figure("fig3")
	if err != nil {
		t.Fatal(err)
	}
	b, err := f.JSON()
	if err != nil {
		t.Fatal(err)
	}
	out := string(b)
	for _, want := range []string{`"id": "Figure 3"`, `"MP3D"`, `"busy"`, `"label": "RC"`} {
		if !strings.Contains(out, want) {
			t.Errorf("JSON missing %s", want)
		}
	}
}
