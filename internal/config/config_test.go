package config

import (
	"math"
	"strings"
	"testing"

	"latsim/internal/dirset"
)

func TestDefaultIsValid(t *testing.T) {
	cfg := Default()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	if cfg.Procs != 16 || cfg.Contexts != 1 || cfg.Model != SC || !cfg.CacheShared {
		t.Error("default config does not match the paper's base machine")
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"no procs", func(c *Config) { c.Procs = 0 }, "Procs"},
		{"no contexts", func(c *Config) { c.Contexts = 0 }, "Contexts"},
		{"negative switch", func(c *Config) { c.SwitchPenalty = -1 }, "SwitchPenalty"},
		{"tiny primary", func(c *Config) { c.PrimaryBytes = 8 }, "PrimaryBytes"},
		{"unaligned secondary", func(c *Config) { c.SecondaryBytes = 1000 }, "SecondaryBytes"},
		{"zero ways", func(c *Config) { c.SecondaryWays = 0 }, "SecondaryWays"},
		{"no write buffer", func(c *Config) { c.WriteBufferDepth = 0 }, "WriteBufferDepth"},
		{"no pf buffer", func(c *Config) { c.PrefetchBufferDepth = 0 }, "PrefetchBufferDepth"},
		{"no outstanding", func(c *Config) { c.MaxOutstandingWrites = 0 }, "MaxOutstandingWrites"},
		{"negative pf issue", func(c *Config) { c.PrefetchIssueCycles = -1 }, "PrefetchIssueCycles"},
		{"mesh non-square", func(c *Config) { c.MeshNetwork = true; c.Procs = 12 }, "square"},
		{"mesh zero hop", func(c *Config) { c.MeshNetwork = true; c.MeshHopCycles = 0 }, "MeshHopCycles"},
		{"mesh zero occupancy", func(c *Config) { c.MeshNetwork = true; c.MeshLinkOccupancy = -2 }, "MeshLinkOccupancy"},
		{"unknown dir org", func(c *Config) { c.DirOrg = dirset.Org(9) }, "full-map, limited-pointer, coarse-vector"},
		{"zero pointers", func(c *Config) { c.DirOrg = dirset.LimitedPtr; c.DirPointers = 0 }, "DirPointers"},
		{"zero coarseness", func(c *Config) { c.DirOrg = dirset.CoarseVector; c.DirCoarseness = 0 }, "DirCoarseness"},
		{"coarse at tiny machine", func(c *Config) { c.DirOrg = dirset.CoarseVector; c.Procs = 4 }, "pointless"},
		{"negative wire", func(c *Config) { c.Lat.Wire = -50 }, "Lat.Wire"},
		{"negative memory hold", func(c *Config) { c.Lat.MemHold = -5 }, "Lat.MemHold"},
		{"negative uncached write", func(c *Config) { c.Lat.UncachedWriteRemote = -1 }, "Lat.UncachedWriteRemote"},
	}
	for _, tc := range cases {
		cfg := Default()
		tc.mut(&cfg)
		err := cfg.Validate()
		if err == nil {
			t.Errorf("%s: expected error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %s", tc.name, err, tc.want)
		}
	}
}

func TestValidateAcceptsMeshConfigs(t *testing.T) {
	for _, procs := range []int{1, 4, 9, 16} {
		cfg := Default()
		cfg.MeshNetwork = true
		cfg.Procs = procs
		if err := cfg.Validate(); err != nil {
			t.Errorf("Procs=%d: %v", procs, err)
		}
	}
}

func TestFullCaches(t *testing.T) {
	cfg := Default().FullCaches()
	if cfg.PrimaryBytes != 64*1024 || cfg.SecondaryBytes != 256*1024 {
		t.Errorf("FullCaches = %d/%d", cfg.PrimaryBytes, cfg.SecondaryBytes)
	}
	if err := cfg.Validate(); err != nil {
		t.Error(err)
	}
}

func TestConsistencyStrings(t *testing.T) {
	for _, tc := range []struct {
		m    Consistency
		want string
	}{{SC, "SC"}, {PC, "PC"}, {WC, "WC"}, {RC, "RC"}} {
		if tc.m.String() != tc.want {
			t.Errorf("%d.String() = %s, want %s", tc.m, tc.m.String(), tc.want)
		}
	}
	if Consistency(99).String() == "" {
		t.Error("unknown model should still render")
	}
	if SC.Buffered() || !PC.Buffered() || !WC.Buffered() || !RC.Buffered() {
		t.Error("Buffered() wrong")
	}
}

func TestName(t *testing.T) {
	cfg := Default()
	if cfg.Name() != "SC" {
		t.Errorf("Name = %q", cfg.Name())
	}
	cfg.Model = RC
	cfg.Prefetch = true
	cfg.Contexts = 4
	cfg.SwitchPenalty = 16
	if got := cfg.Name(); got != "RC-pf-4ctx/16" {
		t.Errorf("Name = %q", got)
	}
	cfg.CacheShared = false
	if got := cfg.Name(); !strings.HasPrefix(got, "nocache-") {
		t.Errorf("Name = %q", got)
	}
}

func TestNameDirOrgLabels(t *testing.T) {
	cfg := Default()
	cfg.DirOrg = dirset.LimitedPtr
	if got := cfg.Name(); got != "SC-dirLP4" {
		t.Errorf("limited-pointer Name = %q", got)
	}
	cfg.DirOrg = dirset.CoarseVector
	cfg.DirCoarseness = 8
	if got := cfg.Name(); got != "SC-dirCV8" {
		t.Errorf("coarse-vector Name = %q", got)
	}
	// The default full-map keeps the historical labels (cache keys and
	// report output unchanged).
	cfg = Default()
	if got := cfg.Name(); got != "SC" {
		t.Errorf("full-map Name = %q", got)
	}
}

func TestValidateAcceptsScaledDirOrgs(t *testing.T) {
	for _, procs := range []int{64, 256, 1024} {
		for _, org := range []dirset.Org{dirset.FullMap, dirset.LimitedPtr, dirset.CoarseVector} {
			cfg := Default()
			cfg.Procs = procs
			cfg.DirOrg = org
			if err := cfg.Validate(); err != nil {
				t.Errorf("Procs=%d org=%v: %v", procs, org, err)
			}
		}
	}
}

func TestTotalProcesses(t *testing.T) {
	cfg := Default()
	cfg.Procs = 16
	cfg.Contexts = 4
	if cfg.TotalProcesses() != 64 {
		t.Errorf("TotalProcesses = %d", cfg.TotalProcesses())
	}
}

func TestTable1Composition(t *testing.T) {
	// The latency parameters must compose into the Table 1 values (this
	// guards against accidental retuning; the end-to-end check lives in
	// the machine tests).
	l := Default().Lat
	hop := 2*l.NIHold + l.Wire
	if got := 1 + l.SecLookup + l.FillPrim; got != 14 {
		t.Errorf("secondary fill composes to %d, want 14", got)
	}
	if got := 1 + l.SecLookup + l.BusHold + l.MemHold + l.FillSec + l.FillPrim; got != 26 {
		t.Errorf("local fill composes to %d, want 26", got)
	}
	if got := 26 + 2*hop; got != 72 {
		t.Errorf("remote fill composes to %d, want 72", got)
	}
	if got := l.SecCheckWrite + l.BusHold + l.MemHold + l.WriteGrant; got != 18 {
		t.Errorf("local write composes to %d, want 18", got)
	}
	if got := 18 + 2*hop; got != 64 {
		t.Errorf("remote write composes to %d, want 64", got)
	}
	fwd := 2*l.NIHold + l.WireForward + l.BusHold + l.OwnerAccess
	if got := 72 + fwd; got != 90 {
		t.Errorf("dirty read composes to %d, want 90", got)
	}
	if got := 64 + fwd; got != 82 {
		t.Errorf("dirty write composes to %d, want 82", got)
	}
}

func TestValidateSpanRate(t *testing.T) {
	cases := []struct {
		rate float64
		ok   bool
	}{
		{0, true}, // off
		{1.0 / 64, true},
		{0.5, true},
		{1, true},
		{-0.1, false},
		{1.1, false},
		{math.Inf(1), false},
		{math.NaN(), false},
	}
	for _, c := range cases {
		err := ValidateSpanRate(c.rate)
		if (err == nil) != c.ok {
			t.Errorf("ValidateSpanRate(%v) = %v, want ok=%v", c.rate, err, c.ok)
		}
	}
}

func TestValidateListenAddr(t *testing.T) {
	cases := []struct {
		addr string
		ok   bool
	}{
		{"", true}, // off
		{"localhost:8080", true},
		{":0", true},
		{"127.0.0.1:9100", true},
		{"[::1]:9100", true},
		{"localhost", false}, // missing port
		{"host:port:extra", false},
		{"127.0.0.1", false},
	}
	for _, c := range cases {
		err := ValidateListenAddr(c.addr)
		if (err == nil) != c.ok {
			t.Errorf("ValidateListenAddr(%q) = %v, want ok=%v", c.addr, err, c.ok)
		}
	}
}
