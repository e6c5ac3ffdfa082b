package msync

import (
	"testing"

	"latsim/internal/config"
	"latsim/internal/mem"
	"latsim/internal/memsys"
	"latsim/internal/sim"
	"latsim/internal/stats"
)

// rig builds a kernel + nodes for direct lock/barrier testing.
type rig struct {
	k     *sim.Kernel
	alloc *mem.Allocator
	nodes []*memsys.Node
}

func newRig(n int) *rig {
	cfg := config.Default()
	cfg.Procs = n
	k := sim.NewKernel()
	alloc := mem.NewAllocator(n)
	r := &rig{k: k, alloc: alloc}
	c := cfg
	for i := 0; i < n; i++ {
		r.nodes = append(r.nodes, memsys.NewNode(k, i, &c, alloc, &stats.Proc{}))
	}
	memsys.Connect(r.nodes)
	return r
}

func (r *rig) lock() *Lock { return NewLock(r.alloc.Alloc(mem.LineSize)) }

func TestLockGrantsInFIFOOrder(t *testing.T) {
	r := newRig(4)
	lk := r.lock()
	var order []int
	// Node 0 takes the lock; nodes 1..3 queue in order.
	lk.Acquire(r.nodes[0], sim.Func(func() {
		for i := 1; i < 4; i++ {
			i := i
			lk.Acquire(r.nodes[i], sim.Func(func() {
				order = append(order, i)
				lk.ReleaseRetired()
			}))
		}
		lk.ReleaseRetired()
	}))
	r.k.Run(nil)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("grant order = %v, want [1 2 3]", order)
	}
	if lk.Held() {
		t.Error("lock still held after all releases")
	}
}

func TestLockFreeAcquireCostsOwnership(t *testing.T) {
	r := newRig(2)
	lk := NewLock(r.alloc.AllocOnNode(mem.LineSize, 1))
	var granted sim.Time
	lk.Acquire(r.nodes[0], sim.Func(func() { granted = r.k.Now() }))
	r.k.Run(nil)
	if granted != 64 {
		t.Errorf("remote lock acquire latency = %d, want 64 (write-ownership)", granted)
	}
	if lk.Holder() != 0 {
		t.Errorf("holder = %d, want 0", lk.Holder())
	}
}

func TestLockHandoffLatency(t *testing.T) {
	r := newRig(2)
	lk := NewLock(r.alloc.AllocOnNode(mem.LineSize, 0))
	var granted sim.Time
	lk.Acquire(r.nodes[0], sim.Func(func() {}))
	lk.Acquire(r.nodes[1], sim.Func(func() { granted = r.k.Now() }))
	r.k.AtActor(1000, sim.Func(func() { lk.ReleaseRetired() }))
	r.k.Run(nil)
	if granted <= 1000 {
		t.Errorf("handoff at %d: must cost a fresh ownership transaction after the release", granted)
	}
	if granted > 1200 {
		t.Errorf("handoff at %d: unreasonably slow", granted)
	}
}

func TestSetHeldProducerConsumer(t *testing.T) {
	r := newRig(2)
	lk := r.lock()
	lk.SetHeld()
	if !lk.Held() || lk.Holder() != -1 {
		t.Fatal("SetHeld did not mark the lock held/ownerless")
	}
	var granted bool
	lk.Acquire(r.nodes[1], sim.Func(func() { granted = true }))
	r.k.Run(nil)
	if granted {
		t.Fatal("consumer acquired a pre-held lock before the producer released")
	}
	lk.ReleaseRetired()
	r.k.Run(nil)
	if !granted {
		t.Fatal("consumer not granted after release")
	}
}

func TestSetHeldTwicePanics(t *testing.T) {
	lk := NewLock(mem.Addr(4096))
	lk.SetHeld()
	defer func() {
		if recover() == nil {
			t.Error("second SetHeld did not panic")
		}
	}()
	lk.SetHeld()
}

func TestReleaseUnheldPanics(t *testing.T) {
	lk := NewLock(mem.Addr(4096))
	defer func() {
		if recover() == nil {
			t.Error("release of unheld lock did not panic")
		}
	}()
	lk.ReleaseRetired()
}

// arrive arrives at bar from n the way a processor does: the counter
// increment takes ownership of the counter line, and once it has retired
// the node arrives.
func arrive(bar *Barrier, n *memsys.Node, released sim.Actor) {
	n.AcquireOwnership(bar.CounterAddr(), sim.Func(func() { bar.ArriveRetired(n, released) }))
}

func TestBarrierReleasesAllTogether(t *testing.T) {
	r := newRig(4)
	bar := NewBarrier(r.alloc.Alloc(mem.LineSize), r.alloc.Alloc(mem.LineSize), 4)
	released := 0
	arriveAt := func(i int, at sim.Time) {
		r.k.AtActor(at, sim.Func(func() {
			arrive(bar, r.nodes[i], sim.Func(func() { released++ }))
		}))
	}
	arriveAt(0, 0)
	arriveAt(1, 100)
	arriveAt(2, 200)
	r.k.RunUntil(5000)
	if released != 0 {
		t.Fatalf("%d processes released before the last arrival", released)
	}
	arriveAt(3, 6000)
	r.k.Run(nil)
	if released != 4 {
		t.Fatalf("released = %d, want 4", released)
	}
}

func TestBarrierReusableAcrossPhases(t *testing.T) {
	r := newRig(2)
	bar := NewBarrier(r.alloc.Alloc(mem.LineSize), r.alloc.Alloc(mem.LineSize), 2)
	phases := 0
	var phase func()
	phase = func() {
		if phases == 3 {
			return
		}
		done := 0
		for i := 0; i < 2; i++ {
			arrive(bar, r.nodes[i], sim.Func(func() {
				done++
				if done == 2 {
					phases++
					phase()
				}
			}))
		}
	}
	phase()
	r.k.Run(nil)
	if phases != 3 {
		t.Errorf("completed %d phases, want 3", phases)
	}
}

func TestBarrierValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("same-line counter/flag should panic")
		}
	}()
	NewBarrier(mem.Addr(4096), mem.Addr(4100), 2)
}

func TestBarrierZeroParticipantsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("0-participant barrier should panic")
		}
	}()
	NewBarrier(mem.Addr(4096), mem.Addr(8192), 0)
}

func TestLockWaitersCount(t *testing.T) {
	r := newRig(4)
	lk := r.lock()
	lk.Acquire(r.nodes[0], sim.Func(func() {}))
	lk.Acquire(r.nodes[1], sim.Func(func() {}))
	lk.Acquire(r.nodes[2], sim.Func(func() {}))
	r.k.Run(nil)
	if lk.Waiters() != 2 {
		t.Errorf("waiters = %d, want 2", lk.Waiters())
	}
}
