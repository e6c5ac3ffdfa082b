package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestKernelFiresInTimeOrder(t *testing.T) {
	k := NewKernel()
	var got []Time
	for _, d := range []Time{50, 10, 30, 10, 0, 99} {
		d := d
		k.AtActor(d, Func(func() { got = append(got, d) }))
	}
	k.Run(nil)
	want := []Time{0, 10, 10, 30, 50, 99}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d fired at %d, want %d", i, got[i], want[i])
		}
	}
	if k.Now() != 99 {
		t.Errorf("Now() = %d, want 99", k.Now())
	}
}

func TestKernelSameTimeFIFO(t *testing.T) {
	k := NewKernel()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.AtActor(5, Func(func() { order = append(order, i) }))
	}
	k.Run(nil)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events fired out of schedule order: %v", order)
		}
	}
}

func TestKernelNestedScheduling(t *testing.T) {
	k := NewKernel()
	var trace []Time
	k.AtActor(10, Func(func() {
		trace = append(trace, k.Now())
		k.AfterActor(5, Func(func() { trace = append(trace, k.Now()) }))
		k.AfterActor(0, Func(func() { trace = append(trace, k.Now()) }))
	}))
	k.Run(nil)
	want := []Time{10, 10, 15}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestKernelSchedulingInPastPanics(t *testing.T) {
	k := NewKernel()
	k.AtActor(10, Func(func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		k.AtActor(5, Func(func() {}))
	}))
	k.Run(nil)
}

func TestKernelRunUntil(t *testing.T) {
	k := NewKernel()
	fired := 0
	for _, d := range []Time{1, 2, 3, 10, 20} {
		k.AtActor(d, Func(func() { fired++ }))
	}
	k.RunUntil(5)
	if fired != 3 {
		t.Errorf("fired = %d, want 3", fired)
	}
	if k.Now() != 5 {
		t.Errorf("Now() = %d, want 5", k.Now())
	}
	k.Run(nil)
	if fired != 5 {
		t.Errorf("fired = %d, want 5", fired)
	}
}

func TestKernelRunUntilEmptyQueue(t *testing.T) {
	// With nothing scheduled, RunUntil must still advance the clock to the
	// deadline: RunUntil(t) means "simulate up to t", not "fire what's there".
	k := NewKernel()
	k.RunUntil(250)
	if k.Now() != 250 {
		t.Errorf("Now() = %d after RunUntil on empty queue, want 250", k.Now())
	}
	// A deadline already behind the clock must not move it backward.
	k.RunUntil(100)
	if k.Now() != 250 {
		t.Errorf("Now() = %d after stale RunUntil, want 250", k.Now())
	}
	// Events scheduled after the jump still fire at their own times.
	var at Time
	k.AfterActor(10, Func(func() { at = k.Now() }))
	k.RunUntil(300)
	if at != 260 {
		t.Errorf("event fired at %d, want 260", at)
	}
	if k.Now() != 300 {
		t.Errorf("Now() = %d, want 300", k.Now())
	}
}

type countActor struct {
	fired int
	at    []Time
	k     *Kernel
}

func (a *countActor) Act() {
	a.fired++
	a.at = append(a.at, a.k.Now())
}

func TestKernelActorScheduling(t *testing.T) {
	k := NewKernel()
	a := &countActor{k: k}
	k.AtActor(5, a)
	k.AfterActor(12, a)
	k.Run(nil)
	if a.fired != 2 {
		t.Fatalf("actor fired %d times, want 2", a.fired)
	}
	want := []Time{5, 12}
	for i := range want {
		if a.at[i] != want[i] {
			t.Errorf("actor firing %d at t=%d, want %d", i, a.at[i], want[i])
		}
	}
	st := k.KernelStats()
	if st.Fired != 2 || st.Scheduled != 2 {
		t.Errorf("stats = %+v, want Fired=2 Scheduled=2", st)
	}
}

func TestKernelStop(t *testing.T) {
	k := NewKernel()
	fired := 0
	for i := Time(0); i < 100; i++ {
		k.AtActor(i, Func(func() { fired++ }))
	}
	k.Run(func() bool { return fired >= 10 })
	if fired != 10 {
		t.Errorf("fired = %d, want 10", fired)
	}
}

// Property: whatever mix of calendar and overflow delays, nested
// scheduling and clock moves drives the queue, every event fires exactly
// once, at its own time, and the firing sequence is the scheduled events
// sorted by (at, seq). Delays cover both tiers ([0, 200)), the calendar's
// edge (63, 64, 65) and same-cycle callbacks (0); RunUntil and NextAt are
// interleaved with Step, and callbacks schedule further events.
func TestKernelOrderProperty(t *testing.T) {
	type rec struct {
		at  Time
		seq int
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := NewKernel()
		var scheduled, fired []rec
		ok := true
		delay := func() Time {
			switch rng.Intn(4) {
			case 0:
				return 0
			case 1:
				return Time(63 + rng.Intn(3))
			default:
				return Time(rng.Intn(200))
			}
		}
		var schedule func()
		schedule = func() {
			r := rec{at: k.Now() + delay(), seq: len(scheduled)}
			scheduled = append(scheduled, r)
			k.AtActor(r.at, Func(func() {
				if k.Now() != r.at {
					ok = false
				}
				fired = append(fired, r)
				for n := rng.Intn(3); n > 0 && len(scheduled) < 1000; n-- {
					schedule()
				}
			}))
		}
		for round := 0; round < 3; round++ {
			for n := rng.Intn(64) + 1; n > 0; n-- {
				schedule()
			}
			for _, pending := k.NextAt(); pending; _, pending = k.NextAt() {
				if rng.Intn(5) == 0 {
					k.RunUntil(k.Now() + Time(rng.Intn(150)))
				} else {
					k.Step()
				}
			}
			k.RunUntil(k.Now() + Time(rng.Intn(201)))
		}
		want := append([]rec(nil), scheduled...)
		sort.Slice(want, func(i, j int) bool {
			return want[i].at < want[j].at || (want[i].at == want[j].at && want[i].seq < want[j].seq)
		})
		return ok && reflect.DeepEqual(fired, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// An event scheduled into the overflow tier must fire before an event
// scheduled later for the same cycle, after the clock has come within the
// calendar's window of that cycle, whichever way the clock got there.
func TestKernelOverflowEventKeepsScheduleOrder(t *testing.T) {
	for _, tc := range []struct {
		name string
		move func(k *Kernel, schedB func())
	}{
		{"Step", func(k *Kernel, schedB func()) { k.AtActor(1, Func(schedB)) }},
		{"RunUntil", func(k *Kernel, schedB func()) { k.RunUntil(1); schedB() }},
	} {
		k := NewKernel()
		var order []string
		k.AtActor(slots, Func(func() { order = append(order, "A") }))
		tc.move(k, func() { k.AtActor(slots, Func(func() { order = append(order, "B") })) })
		k.Run(nil)
		if strings.Join(order, "") != "AB" {
			t.Errorf("%s: fired %v, want [A B]", tc.name, order)
		}
	}
}

func TestResourceSerializesOverlappingRequests(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "bus")
	var ends []Time
	k.AtActor(0, Func(func() {
		r.AcquireActor(10, Func(func() { ends = append(ends, k.Now()) }))
		r.AcquireActor(10, Func(func() { ends = append(ends, k.Now()) }))
		r.AcquireActor(5, Func(func() { ends = append(ends, k.Now()) }))
	}))
	k.Run(nil)
	want := []Time{10, 20, 25}
	for i := range want {
		if ends[i] != want[i] {
			t.Fatalf("ends = %v, want %v", ends, want)
		}
	}
	if r.WaitCycles() != 10+20 {
		t.Errorf("WaitCycles = %d, want 30", r.WaitCycles())
	}
	if r.BusyCycles() != 25 {
		t.Errorf("BusyCycles = %d, want 25", r.BusyCycles())
	}
}

func TestResourceIdleGapThenAcquire(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "bus")
	var end Time
	k.AtActor(0, Func(func() { r.AcquireActor(5, nil) }))
	k.AtActor(100, Func(func() {
		end = r.AcquireActor(5, nil)
	}))
	k.Run(nil)
	if end != 105 {
		t.Errorf("second acquire completed at %d, want 105", end)
	}
	if r.WaitCycles() != 0 {
		t.Errorf("WaitCycles = %d, want 0", r.WaitCycles())
	}
}

func TestCoroutineHandoff(t *testing.T) {
	var trace []string
	var co *Coroutine
	co = NewCoroutine(func() {
		trace = append(trace, "a")
		co.Yield()
		trace = append(trace, "b")
		co.Yield()
		trace = append(trace, "c")
	})
	for i := 0; i < 3; i++ {
		alive := co.Resume()
		trace = append(trace, "k")
		if i < 2 && !alive {
			t.Fatal("coroutine finished early")
		}
		if i == 2 && alive {
			t.Fatal("coroutine still alive after body returned")
		}
	}
	want := []string{"a", "k", "b", "k", "c", "k"}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
	if !co.Finished() {
		t.Error("Finished() = false after completion")
	}
}

func TestCoroutinePanicPropagates(t *testing.T) {
	co := NewCoroutine(func() { panic("boom") })
	defer func() {
		if recover() == nil {
			t.Error("panic in body did not propagate to Resume")
		}
	}()
	co.Resume()
}

func TestCoroutineInterleavingDeterministic(t *testing.T) {
	// Two coroutines resumed alternately must interleave identically
	// every run.
	run := func() []int {
		var out []int
		var a, b *Coroutine
		a = NewCoroutine(func() {
			for i := 0; i < 5; i++ {
				out = append(out, i*2)
				a.Yield()
			}
		})
		b = NewCoroutine(func() {
			for i := 0; i < 5; i++ {
				out = append(out, i*2+1)
				b.Yield()
			}
		})
		for i := 0; i < 5; i++ {
			a.Resume()
			b.Resume()
		}
		// Drain: final Resume lets the bodies return.
		a.Resume()
		b.Resume()
		return out
	}
	first := run()
	for trial := 0; trial < 10; trial++ {
		again := run()
		for i := range first {
			if again[i] != first[i] {
				t.Fatalf("nondeterministic interleaving: %v vs %v", first, again)
			}
		}
	}
}

func TestCoroutineStopUnwindsBody(t *testing.T) {
	var deferred, after bool
	var co *Coroutine
	co = NewCoroutine(func() {
		defer func() { deferred = true }()
		co.Yield()
		after = true
	})
	if !co.Resume() {
		t.Fatal("coroutine finished before its first Yield")
	}
	co.Stop()
	if !deferred {
		t.Error("Stop did not run the body's deferred functions")
	}
	if after {
		t.Error("body ran past its Yield after Stop")
	}
	if !co.Finished() {
		t.Error("Finished() = false after Stop")
	}
	co.Stop() // idempotent
}

func TestCoroutineStopBeforeResume(t *testing.T) {
	ran := false
	co := NewCoroutine(func() { ran = true })
	co.Stop()
	if ran {
		t.Error("Stop before the first Resume ran the body")
	}
	if !co.Finished() {
		t.Error("Finished() = false after Stop")
	}
}

func TestCoroutineResumeAfterEndPanics(t *testing.T) {
	mustPanic := func(name string, co *Coroutine) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("Resume %s did not panic", name)
			}
		}()
		co.Resume()
	}
	stoppedCo := NewCoroutine(func() {})
	stoppedCo.Stop()
	mustPanic("after Stop", stoppedCo)

	done := NewCoroutine(func() {})
	if done.Resume() {
		t.Fatal("empty body still alive after Resume")
	}
	mustPanic("after the body returned", done)
}

// panickingBody is a named function so the test can find it in the
// process stack the re-raised panic carries.
func panickingBody() { panic("boom") }

func TestCoroutinePanicCarriesProcessStack(t *testing.T) {
	co := NewCoroutine(panickingBody)
	var msg string
	func() {
		defer func() { msg = fmt.Sprint(recover()) }()
		co.Resume()
	}()
	if !strings.Contains(msg, "boom") || !strings.Contains(msg, "sim.panickingBody") {
		t.Errorf("panic text lacks the value or the process frame:\n%s", msg)
	}
	if !co.Finished() {
		t.Error("Finished() = false after the body panicked")
	}
}
