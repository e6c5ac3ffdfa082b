package core

import (
	"fmt"
	"io"
	"strings"

	"latsim/internal/machine"
	"latsim/internal/obs"
	"latsim/internal/runner"
	"latsim/internal/twin"
)

// charObs are the observability options of the twin's reference runs:
// a coarse sampling interval (the characterization only reads run
// totals — histograms and directory counters — never the time series)
// and no span tracing. Fixed so reference jobs hash identically across
// sessions and hit the persistent cache.
var charObs = obs.Options{Interval: 1 << 16}

// Characterize extracts the analytical twin's workload characterization
// for one application by running (or loading from cache) the twin's
// reference configurations with observability enabled. The references
// derive from the session's base machine via twin.ReferenceConfigs.
func (s *Session) Characterize(app string) (*twin.AppChar, error) {
	chars, err := s.characterize([]string{app})
	return chars[app], err
}

// CharacterizeAll characterizes every benchmark from one batch of
// reference runs, so they simulate in parallel.
func (s *Session) CharacterizeAll() (map[string]*twin.AppChar, error) {
	return s.characterize(AppNames)
}

func (s *Session) characterize(apps []string) (map[string]*twin.AppChar, error) {
	refs, err := twin.ReferenceConfigs(Base())
	if err != nil {
		return nil, err
	}
	eng, err := s.engine()
	if err != nil {
		return nil, err
	}
	jobs := make([]runner.Job, 0, len(apps)*len(refs))
	for _, app := range apps {
		for k := range refs {
			j := s.job(app, refs[k])
			j.Obs = &charObs
			jobs = append(jobs, j)
		}
	}
	all, err := eng.RunAll(s.ctx(), jobs)
	if err != nil {
		return nil, fmt.Errorf("core: characterizing %s: %w", strings.Join(apps, ", "), err)
	}
	out := make(map[string]*twin.AppChar, len(apps))
	for i, app := range apps {
		var results [twin.NumRefs]*machine.Result
		copy(results[:], all[i*len(refs):])
		char, err := twin.Characterize(results)
		if err != nil {
			return nil, fmt.Errorf("core: characterizing %s: %w", app, err)
		}
		out[app] = char
	}
	return out, nil
}

// RenderTwin renders the figure like Render but with the analytical
// twin's predicted total (and its deviation from the measured total, in
// normalized points) next to each bar. Configurations the twin cannot
// model show "-".
func (f *Figure) RenderTwin(w io.Writer, chars map[string]*twin.AppChar) {
	fmt.Fprintf(w, "%s: %s (twin overlay)\n", f.ID, f.Title)
	for _, app := range f.Apps {
		fmt.Fprintf(w, "  %s\n", app)
		fmt.Fprintf(w, "    %-24s %8s %8s %8s\n", "configuration", "total", "twin", "err")
		var model *twin.Model
		if char := chars[app]; char != nil {
			model = twin.New(char)
		}
		for _, bar := range f.Bars[app] {
			fmt.Fprintf(w, "    %-24s %8.1f", bar.Label, bar.Total)
			pred := func() *twin.Prediction {
				if model == nil || bar.Result == nil || bar.Total <= 0 {
					return nil
				}
				p, err := model.Predict(bar.Result.Cfg)
				if err != nil {
					return nil
				}
				return p
			}()
			if pred == nil {
				fmt.Fprintf(w, " %8s %8s\n", "-", "-")
				continue
			}
			// Recover the app's normalization base from the bar itself:
			// Total percent corresponds to the result's raw total.
			base := float64(bar.Result.Breakdown.Total()) * 100 / bar.Total
			twinTotal := 100 * pred.Total / base
			fmt.Fprintf(w, " %8.1f %+8.1f\n", twinTotal, twinTotal-bar.Total)
		}
	}
}
