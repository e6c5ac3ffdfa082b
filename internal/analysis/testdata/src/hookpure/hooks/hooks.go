// Package hooks is the hookpure golden fixture: a hook type (the test
// registers Recorder as one) with deliberate zero-perturbation-contract
// violations next to justified, annotated patterns.
package hooks

import (
	"latsim/internal/analysis/testdata/src/hookpure/helper"
	"latsim/internal/config"
	"latsim/internal/sim"
)

var emitted int

// Recorder is the fixture hook type.
type Recorder struct {
	k      *sim.Kernel
	cfg    *config.Config
	counts []int
	last   int
}

// Tick allocates on the hot path.
func (r *Recorder) Tick(n int) {
	r.counts = append(r.counts, n) // want `hook method \(hooks\.Recorder\)\.Tick allocates on the hot path: append`
}

// Defer schedules kernel work; the hazard is visible only through the
// sim package's exported FnEffects facts.
func (r *Recorder) Defer(fn func()) {
	r.k.AfterActor(1, sim.Func(fn)) // want `hook method \(hooks\.Recorder\)\.Defer schedules kernel work`
}

// Tune writes simulation-model state through a model-package pointer.
func (r *Recorder) Tune() {
	cfg := r.cfg
	cfg.Procs = 0 // want `hook method \(hooks\.Recorder\)\.Tune mutates simulation state`
}

// Count writes package-level state.
func (r *Recorder) Count() {
	emitted++ // want `hook method \(hooks\.Recorder\)\.Count writes package-level state`
}

// Tally calls into another package that writes its own global; the
// hazard arrives here only through helper's exported FnEffects fact.
func (r *Recorder) Tally() {
	helper.Bump() // want `hook method \(hooks\.Recorder\)\.Tally writes package-level state: call to helper\.Bump`
}

// grow appends with a justified amortized-growth marker; the
// suppression lives at the allocation site, so every hook reaching it
// is covered by this one annotation.
func (r *Recorder) grow(n int) {
	//hookpure:alloc amortized: the series grows to a high-water mark, then stabilizes
	r.counts = append(r.counts, n)
}

// Sample is silent: the only allocation it reaches is justified where
// it happens.
func (r *Recorder) Sample(n int) {
	r.grow(n)
}

// Observe mutates only the hook's own state, which the contract allows,
// and calls an effect-free function of another package.
func (r *Recorder) Observe(n int) {
	r.last = helper.Pure(n)
}

// Finish renders the final series.
//
//hookpure:cold runs once, after the last simulated event
func (r *Recorder) Finish() []int {
	out := make([]int, len(r.counts))
	copy(out, r.counts)
	return out
}
