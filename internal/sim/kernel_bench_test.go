package sim

import "testing"

// The kernel microbenchmarks exercise the event queue in isolation so the
// scheduling cost (ns/op and allocs/op) is visible without the rest of the
// simulator. CI runs them with -benchmem and fails if any allocates; the
// benchmark module in bench/ measures the kernel's share of whole runs.

// BenchmarkKernelScheduleFire schedules and fires one event per iteration
// with a prebuilt closure: the steady-state cost of one event through the
// queue. It also pins that a Func converts to an Actor without allocating.
func BenchmarkKernelScheduleFire(b *testing.B) {
	k := NewKernel()
	fn := Func(func() {})
	// Warm the queue so slice growth is out of the measured region.
	for i := 0; i < 64; i++ {
		k.AfterActor(Time(i), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.AfterActor(8, fn)
		k.Step()
	}
}

// BenchmarkKernelHeapChurn keeps a deep queue (1024 pending events) with
// delays up to 255 cycles, so most events wait in the overflow heap: it
// measures push+pop through the overflow tier and the moves from it into
// the calendar.
func BenchmarkKernelHeapChurn(b *testing.B) {
	k := NewKernel()
	fn := Func(func() {})
	const depth = 1024
	for i := 0; i < depth; i++ {
		// Spread timestamps so the heap actually reorders.
		k.AfterActor(Time(i*7%255), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.AfterActor(Time(i*13%255+1), fn)
		k.Step()
	}
}

// BenchmarkKernelNearChurn keeps 32 Actor events pending with delays of
// 1–15 cycles, the shape of the simulator's own traffic, in which nearly
// every event is due within 64 cycles: it runs entirely in the calendar.
func BenchmarkKernelNearChurn(b *testing.B) {
	k := NewKernel()
	var a nopActor
	const depth = 32
	for i := 0; i < depth; i++ {
		k.AfterActor(Time(i%15+1), a)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.AfterActor(Time(i*7%15+1), a)
		k.Step()
	}
}

// BenchmarkKernelResource measures a Resource acquire/complete cycle, the
// building block of every contention point in the memory system, with a
// prebuilt closure completion.
func BenchmarkKernelResource(b *testing.B) {
	k := NewKernel()
	r := NewResource(k)
	fn := Func(func() {})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.AcquireActor(2, fn)
		k.Step()
	}
}

// nopActor is a prebuilt Actor completion for the benchmarks below.
type nopActor struct{}

func (nopActor) Act() {}

// BenchmarkKernelActorScheduleFire is ScheduleFire with a model-object
// Actor instead of a closure, the scheduling pattern of every hot model
// object.
func BenchmarkKernelActorScheduleFire(b *testing.B) {
	k := NewKernel()
	var a nopActor
	for i := 0; i < 64; i++ {
		k.AfterActor(Time(i), a)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.AfterActor(8, a)
		k.Step()
	}
}

// BenchmarkKernelResourceActor measures the Resource cycle with an Actor
// completion, the shape of bus/directory/memory occupancy in the node model.
func BenchmarkKernelResourceActor(b *testing.B) {
	k := NewKernel()
	r := NewResource(k)
	var a nopActor
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.AcquireActor(2, a)
		k.Step()
	}
}

// BenchmarkKernelCoroutineSwitch measures one Resume/Yield round trip, the
// handoff every operation an application process submits pays.
func BenchmarkKernelCoroutineSwitch(b *testing.B) {
	var co *Coroutine
	co = NewCoroutine(func() {
		for {
			co.Yield()
		}
	})
	defer co.Stop()
	co.Resume()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		co.Resume()
	}
}

// TestKernelHotPathsAllocateNothing is the tier-1 form of the benchmarks'
// 0 allocs/op gate: each path a kernel benchmark times, built and warmed
// the same way, must allocate nothing per iteration.
func TestKernelHotPathsAllocateNothing(t *testing.T) {
	fn := Func(func() {})
	var a nopActor
	// churn keeps depth events pending: each iteration schedules one
	// more at delay(i) and fires the earliest.
	churn := func(c Actor, depth int, delay func(i int) Time) func(int) {
		k := NewKernel()
		for i := 0; i < depth; i++ {
			k.AfterActor(delay(i), c)
		}
		return func(i int) {
			k.AfterActor(delay(i), c)
			k.Step()
		}
	}
	scheduleFire := func(c Actor) func(int) {
		k := NewKernel()
		for i := 0; i < 64; i++ {
			k.AfterActor(Time(i), c)
		}
		return func(int) {
			k.AfterActor(8, c)
			k.Step()
		}
	}
	resource := func(c Actor) func(int) {
		k := NewKernel()
		r := NewResource(k)
		return func(int) {
			r.AcquireActor(2, c)
			k.Step()
		}
	}
	var co *Coroutine
	co = NewCoroutine(func() {
		for {
			co.Yield()
		}
	})
	defer co.Stop()
	for _, tc := range []struct {
		name string
		step func(i int)
	}{
		{"ScheduleFire/Func", scheduleFire(fn)},
		{"ScheduleFire/Actor", scheduleFire(a)},
		{"NearChurn", churn(a, 32, func(i int) Time { return Time(i*7%15 + 1) })},
		{"HeapChurn", churn(fn, 1024, func(i int) Time { return Time(i*13%255 + 1) })},
		{"Resource/Func", resource(fn)},
		{"Resource/Actor", resource(a)},
		{"CoroutineSwitch", func(int) { co.Resume() }},
	} {
		i := 0
		iter := func() {
			tc.step(i)
			i++
		}
		// Warm up: queues, arenas and the overflow heap reach their
		// high-water marks, as in a benchmark's 10000 iterations.
		for n := 0; n < 2048; n++ {
			iter()
		}
		if got := testing.AllocsPerRun(1000, iter); got != 0 {
			t.Errorf("%s: %v allocs per iteration, want 0", tc.name, got)
		}
	}
}
