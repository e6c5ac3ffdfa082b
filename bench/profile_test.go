package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestLayerOfFixtureStacks(t *testing.T) {
	for _, tc := range []struct {
		frames []string
		want   string
	}{
		// The innermost latsim frame decides, even under runtime frames.
		{[]string{"runtime.chansend", "runtime.chansend1", "latsim/internal/sim.(*Coroutine).Resume",
			"latsim/internal/cpu.(*Processor).exec", "latsim/internal/sim.(*Kernel).Step"}, "handoff"},
		{[]string{"runtime.chanrecv", "latsim/internal/sim.(*Coroutine).Yield", "latsim/internal/cpu.(*Env).Read",
			"latsim/internal/apps/lu.(*App).Worker"}, "handoff"},
		{[]string{"latsim/internal/apps/lu.(*App).apply", "latsim/internal/apps/lu.(*App).Worker",
			"latsim/internal/cpu.(*Processor).AddWorker.func3"}, "apps"},
		{[]string{"latsim/internal/sim.(*event).before", "latsim/internal/sim.(*Kernel).pop"}, "sim.kernel"},
		{[]string{"latsim/internal/sim.(*Resource).acquire", "latsim/internal/memsys.(*Node).bus"}, "sim.resource"},
		// A generic instantiation can name other packages inside brackets.
		{[]string{"latsim/internal/sim.(*Pool[go.shape.struct { latsim/internal/memsys.a int }]).Get",
			"latsim/internal/memsys.(*Node).newMSHR"}, "sim.kernel"},
		{[]string{"latsim/internal/memsys.(*mshr).Act", "latsim/internal/sim.(*Kernel).Step"}, "memsys"},
		{[]string{"latsim/internal/obs.(*Recorder).Miss"}, "latsim.other"},
		{[]string{"main.(*opCounts).observe", "latsim/internal/cpu.(*Env).trace"}, "bench"},
		// g0 stacks of the scheduler carry no latsim frame.
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"}, "runtime.sched"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.gcBgMarkWorker"}, "runtime.gc"},
		{[]string{"runtime.memmove", "runtime.goexit"}, "runtime.other"},
	} {
		if got := layerOf(tc.frames); got != tc.want {
			t.Errorf("layerOf(%q) = %s, want %s", tc.frames[0], got, tc.want)
		}
	}
}

func TestCPUSharesSumTo100(t *testing.T) {
	shares := cpuShares([]stack{
		{frames: []string{"latsim/internal/sim.(*Coroutine).Resume"}, count: 3},
		{frames: []string{"runtime.schedule"}, count: 1},
	})
	sum := 0.0
	for _, v := range shares {
		sum += v
	}
	if math.Abs(sum-100) > 1e-9 || shares["handoff"] != 75 || shares["runtime.sched"] != 25 {
		t.Errorf("shares = %v (sum %v)", shares, sum)
	}
}

//go:noinline
func burnForProfile(d time.Duration) (x uint64) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1e5; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

// TestParseProfileReadsRuntimeProfile decodes a real CPU profile.
func TestParseProfileReadsRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	burnForProfile(300 * time.Millisecond)
	pprof.StopCPUProfile()
	stacks, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var burned, total int64
	for _, s := range stacks {
		total += s.count
		for _, f := range s.frames {
			if strings.HasSuffix(f, ".burnForProfile") {
				burned += s.count
				break
			}
		}
	}
	if total == 0 || burned*2 < total {
		t.Errorf("%d of %d samples in burnForProfile", burned, total)
	}
}
