package main

import (
	"time"

	"latsim/internal/sim"
)

// Isolated timings of the two layers every simulated reference crosses.
// Each sample times a fixed number of operations; the caller reports the
// median and quartiles over several samples.

const (
	switchesPerSample = 100_000
	eventsPerSample   = 1_000_000
	kernelDepth       = 64
	microSamples      = 7
)

// nsPerSwitch times sim.Coroutine Resume/Yield round trips: one Resume
// from the kernel side and one Yield back from the process.
func nsPerSwitch() float64 {
	var co *sim.Coroutine
	co = sim.NewCoroutine(func() {
		for i := 0; i < switchesPerSample; i++ {
			co.Yield()
		}
	})
	start := time.Now()
	for co.Resume() {
	}
	return float64(time.Since(start).Nanoseconds()) / switchesPerSample
}

// churnActor reschedules itself at a pseudo-random delay each time it
// fires, so the queue keeps its depth and keeps reordering.
type churnActor struct {
	k *sim.Kernel
	x uint32
}

func (a *churnActor) Act() {
	a.x = a.x*1664525 + 1013904223
	a.k.AtActor(a.k.Now()+sim.Time(1+a.x>>26), a)
}

// nsPerEvent times kernel AtActor+Step at a queue depth of 64 pending
// events.
func nsPerEvent() float64 {
	k := sim.NewKernel()
	for i := 0; i < kernelDepth; i++ {
		k.AtActor(sim.Time(i), &churnActor{k: k, x: uint32(i)})
	}
	start := time.Now()
	for i := 0; i < eventsPerSample; i++ {
		k.Step()
	}
	return float64(time.Since(start).Nanoseconds()) / eventsPerSample
}

// micro runs both microbenchmarks microSamples times each.
func micro() map[string]summary {
	var sw, ev []float64
	for i := 0; i < microSamples; i++ {
		sw = append(sw, nsPerSwitch())
		ev = append(ev, nsPerEvent())
	}
	return map[string]summary{
		"handoff.ns_per_switch":   summarize(sw),
		"sim.kernel.ns_per_event": summarize(ev),
	}
}
