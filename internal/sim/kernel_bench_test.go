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
	r := NewResource(k, "bus")
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
	r := NewResource(k, "bus")
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
