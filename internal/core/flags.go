package core

import (
	"cmp"
	"flag"
	"time"

	"latsim/internal/config"
	"latsim/internal/obs"
)

// Options are the run options cmd/latsim and cmd/figures share.
// DeclareFlags declares them once, so both commands document and
// validate them the same way.
type Options struct {
	Scale Scale
	// Timeout is the wall-clock limit of each simulation (0 = none).
	Timeout time.Duration
	// Obs records observability data on every run (nil = off), and
	// ObsDir is where the artifacts go.
	Obs    *obs.Options
	ObsDir string
	// Check runs every simulation under the coherence invariant checker.
	Check bool
}

// DeclareFlags declares -scale, -timeout, -obs, -obs-dir,
// -obs-span-rate and -check on fs. The returned function, called after
// fs.Parse, validates them.
func DeclareFlags(fs *flag.FlagSet) func() (Options, error) {
	scale := fs.String("scale", "small", "data-set scale: small or paper")
	timeout := fs.Duration("timeout", 0, "per-job wall-clock timeout, e.g. 5m (0 = none)")
	obsOn := fs.Bool("obs", false, "record observability data and write report + Chrome trace artifacts")
	obsDir := fs.String("obs-dir", "", "directory for observability artifacts (implies -obs; default \"obs\")")
	spanRate := fs.Float64("obs-span-rate", obs.DefaultSpanRate, "transaction span-tracing sample rate in (0, 1] when -obs is set (0 = off)")
	check := fs.Bool("check", false, "run every simulation under the coherence invariant checker; a violation fails the run")
	return func() (Options, error) {
		sc, err := ParseScale(*scale)
		if err != nil {
			return Options{}, err
		}
		if err := config.ValidateSpanRate(*spanRate); err != nil {
			return Options{}, err
		}
		o := Options{Scale: sc, Timeout: *timeout, Check: *check}
		if *obsOn || *obsDir != "" {
			o.Obs = &obs.Options{SpanRate: *spanRate}
			o.ObsDir = cmp.Or(*obsDir, "obs")
		}
		return o, nil
	}
}

// NewSession returns a session that applies o to every job.
func (o Options) NewSession() *Session {
	s := NewSession(o.Scale)
	s.Timeout, s.Obs, s.Check = o.Timeout, o.Obs, o.Check
	return s
}
