package memsys

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"latsim/internal/config"
	"latsim/internal/mem"
	"latsim/internal/sim"
	"latsim/internal/stats"
)

// rig is a test machine: kernel, allocator and nodes.
type rig struct {
	k     *sim.Kernel
	alloc *mem.Allocator
	nodes []*Node
	sts   []*stats.Proc
	cfg   *config.Config
}

func newRig(nprocs int, mut func(*config.Config)) *rig {
	cfg := config.Default()
	cfg.Procs = nprocs
	if mut != nil {
		mut(&cfg)
	}
	k := sim.NewKernel()
	alloc := mem.NewAllocator(nprocs)
	r := &rig{k: k, alloc: alloc, cfg: &cfg}
	for i := 0; i < nprocs; i++ {
		st := &stats.Proc{}
		r.sts = append(r.sts, st)
		r.nodes = append(r.nodes, NewNode(k, i, &cfg, alloc, st))
	}
	Connect(r.nodes)
	return r
}

// readLatency issues a demand read at time start and returns its latency
// (excluding the 1-cycle issue the processor accounts).
func (r *rig) readLatency(t *testing.T, node int, a mem.Addr) sim.Time {
	t.Helper()
	var done sim.Time
	fired := false
	start := r.k.Now()
	r.nodes[node].Read(a, sim.Func(func() { done = r.k.Now(); fired = true }))
	r.k.Run(nil)
	if !fired {
		t.Fatalf("read of %#x on node %d never completed", a, node)
	}
	return done - start
}

func (r *rig) writeLatency(t *testing.T, node int, a mem.Addr) sim.Time {
	t.Helper()
	var done sim.Time
	fired := false
	start := r.k.Now()
	r.nodes[node].AcquireOwnership(a, sim.Func(func() { done = r.k.Now(); fired = true }))
	r.k.Run(nil)
	if !fired {
		t.Fatalf("write of %#x on node %d never completed", a, node)
	}
	return done - start
}

// Table 1 read latencies (minus the 1-cycle processor issue).
func TestTable1ReadLatencies(t *testing.T) {
	r := newRig(4, nil)
	local := r.alloc.AllocOnNode(mem.LineSize, 0)
	remote := r.alloc.AllocOnNode(mem.LineSize, 1)

	if got := r.readLatency(t, 0, local); got != 25 {
		t.Errorf("fill from local node = %d+1, want 26", got)
	}
	// Second read: primary hit, classified not serviced here.
	if cls := r.nodes[0].ClassifyRead(local); cls != ClassPrimary {
		t.Errorf("re-read class = %v, want primary hit", cls)
	}

	if got := r.readLatency(t, 0, remote); got != 71 {
		t.Errorf("fill from home node = %d+1, want 72", got)
	}

	// Dirty remote: node 2 owns a line homed on node 1; node 0 reads it.
	dirty := r.alloc.AllocOnNode(mem.LineSize, 1) + 0
	if got := r.writeLatency(t, 2, dirty); got != 64 {
		t.Fatalf("setup write = %d, want 64", got)
	}
	if got := r.readLatency(t, 0, dirty); got != 89 {
		t.Errorf("fill from remote dirty node = %d+1, want 90", got)
	}
	if err := CheckInvariants(r.nodes); err != nil {
		t.Errorf("invariants: %v", err)
	}
}

func TestTable1SecondaryFill(t *testing.T) {
	r := newRig(2, nil)
	a := r.alloc.AllocOnNode(mem.LineSize, 0)
	r.readLatency(t, 0, a) // bring into both caches
	// Knock it out of the primary only by filling a conflicting line.
	conflict := a + mem.Addr(r.cfg.PrimaryBytes)
	r.alloc.AllocOnNode(int(conflict-a)+mem.LineSize, 0)
	r.readLatency(t, 0, conflict)
	if cls := r.nodes[0].ClassifyRead(a); cls != ClassSecondary {
		// The secondary must still hold it (secondary is bigger).
		t.Fatalf("class = %v, want secondary", cls)
	}
	if got := r.readLatency(t, 0, a); got != 13 {
		t.Errorf("fill from secondary = %d+1, want 14", got)
	}
}

// Table 1 write latencies.
func TestTable1WriteLatencies(t *testing.T) {
	r := newRig(4, nil)
	local := r.alloc.AllocOnNode(mem.LineSize, 0)
	remote := r.alloc.AllocOnNode(mem.LineSize, 1)
	dirty := r.alloc.AllocOnNode(mem.LineSize, 1)

	if got := r.writeLatency(t, 0, local); got != 18 {
		t.Errorf("write owned by local node = %d, want 18", got)
	}
	if got := r.writeLatency(t, 0, local); got != 2 {
		t.Errorf("write owned by secondary = %d, want 2", got)
	}
	if got := r.writeLatency(t, 0, remote); got != 64 {
		t.Errorf("write owned in home node = %d, want 64", got)
	}
	if got := r.writeLatency(t, 2, dirty); got != 64 {
		t.Fatalf("setup write = %d", got)
	}
	if got := r.writeLatency(t, 0, dirty); got != 82 {
		t.Errorf("write owned in remote node = %d, want 82", got)
	}
	if err := CheckInvariants(r.nodes); err != nil {
		t.Errorf("invariants: %v", err)
	}
}

func TestUncachedLatencies(t *testing.T) {
	r := newRig(2, func(c *config.Config) { c.CacheShared = false })
	local := r.alloc.AllocOnNode(mem.LineSize, 0)
	remote := r.alloc.AllocOnNode(mem.LineSize, 1)
	if got := r.readLatency(t, 0, local); got != 19 {
		t.Errorf("uncached local read = %d+1, want 20", got)
	}
	if got := r.readLatency(t, 0, remote); got != 63 {
		t.Errorf("uncached remote read = %d+1, want 64", got)
	}
	// Uncached data never enters the caches.
	if got := r.readLatency(t, 0, local); got != 19 {
		t.Errorf("repeat uncached local read = %d+1, want 20 (no caching)", got)
	}
	if got := r.writeLatency(t, 0, local); got != 12 {
		t.Errorf("uncached local write = %d, want 12", got)
	}
	if got := r.writeLatency(t, 0, remote); got != 56 {
		t.Errorf("uncached remote write = %d, want 56", got)
	}
}

func TestMSHRMergesSameLineReads(t *testing.T) {
	r := newRig(2, nil)
	a := r.alloc.AllocOnNode(mem.LineSize, 1)
	var t1, t2 sim.Time
	r.nodes[0].Read(a, sim.Func(func() { t1 = r.k.Now() }))
	r.nodes[0].Read(a+4, sim.Func(func() { t2 = r.k.Now() }))
	r.k.Run(nil)
	if t1 != t2 {
		t.Errorf("merged reads completed at %d and %d, want same time", t1, t2)
	}
	if r.sts[0].ReadMisses != 1 {
		t.Errorf("ReadMisses = %d, want 1 (second read merged)", r.sts[0].ReadMisses)
	}
}

func TestWriteInvalidatesSharersAndAcksDrain(t *testing.T) {
	r := newRig(4, nil)
	a := r.alloc.AllocOnNode(mem.LineSize, 3)
	// Nodes 0 and 1 cache the line shared.
	r.readLatency(t, 0, a)
	r.readLatency(t, 1, a)
	// Node 2 writes it.
	r.writeLatency(t, 2, a)
	if r.nodes[0].sec.State(mem.LineOf(a)) != Invalid {
		t.Error("node 0 not invalidated by remote write")
	}
	if r.nodes[1].sec.State(mem.LineOf(a)) != Invalid {
		t.Error("node 1 not invalidated by remote write")
	}
	if r.nodes[0].prim.Present(mem.LineOf(a)) {
		t.Error("node 0 primary copy survived invalidation")
	}
	if r.nodes[2].sec.State(mem.LineOf(a)) != Dirty {
		t.Error("writer does not own the line")
	}
	if r.nodes[2].PendingAcks() != 0 {
		t.Errorf("pendingAcks = %d after quiescence, want 0", r.nodes[2].PendingAcks())
	}
	if err := CheckInvariants(r.nodes); err != nil {
		t.Errorf("invariants: %v", err)
	}
}

func TestAcksCountedDuringInvalidation(t *testing.T) {
	r := newRig(4, nil)
	a := r.alloc.AllocOnNode(mem.LineSize, 3)
	r.readLatency(t, 0, a)
	r.readLatency(t, 1, a)
	sawPending := false
	r.nodes[2].AcquireOwnership(a, sim.Func(func() {
		if r.nodes[2].PendingAcks() > 0 {
			sawPending = true
		}
	}))
	r.k.Run(nil)
	if !sawPending {
		t.Error("ownership granted with no pending acks despite two sharers (acks should trail the grant)")
	}
}

func TestReadForwardDowngradesOwner(t *testing.T) {
	r := newRig(3, nil)
	a := r.alloc.AllocOnNode(mem.LineSize, 1)
	r.writeLatency(t, 2, a) // node 2 owns
	r.readLatency(t, 0, a)  // node 0 reads through home 1
	if got := r.nodes[2].sec.State(mem.LineOf(a)); got != Shared {
		t.Errorf("owner state after read forward = %v, want Shared", got)
	}
	if got := r.nodes[0].sec.State(mem.LineOf(a)); got != Shared {
		t.Errorf("reader state = %v, want Shared", got)
	}
	if err := CheckInvariants(r.nodes); err != nil {
		t.Errorf("invariants: %v", err)
	}
}

func TestWriteForwardTransfersOwnership(t *testing.T) {
	r := newRig(3, nil)
	a := r.alloc.AllocOnNode(mem.LineSize, 1)
	r.writeLatency(t, 2, a)
	r.writeLatency(t, 0, a)
	if got := r.nodes[2].sec.State(mem.LineOf(a)); got != Invalid {
		t.Errorf("old owner state = %v, want Invalid", got)
	}
	if got := r.nodes[0].sec.State(mem.LineOf(a)); got != Dirty {
		t.Errorf("new owner state = %v, want Dirty", got)
	}
	if err := CheckInvariants(r.nodes); err != nil {
		t.Errorf("invariants: %v", err)
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	r := newRig(2, nil)
	a := r.alloc.AllocOnNode(mem.LineSize, 1)
	conflict := a + mem.Addr(r.cfg.SecondaryBytes)
	r.alloc.AllocOnNode(int(conflict-a)+mem.LineSize, 1)

	r.writeLatency(t, 0, a) // dirty in node 0
	// Read the conflicting line: evicts the dirty line, triggering a
	// writeback.
	r.readLatency(t, 0, conflict)
	if got := r.nodes[0].sec.State(mem.LineOf(a)); got != Invalid {
		t.Errorf("evicted line state = %v, want Invalid", got)
	}
	e := r.nodes[1].entry(mem.LineOf(a))
	if e.state != DirUncached {
		t.Errorf("directory after writeback = %d, want DirUncached", e.state)
	}
	if err := CheckInvariants(r.nodes); err != nil {
		t.Errorf("invariants: %v", err)
	}
}

func TestReadDuringWritebackWaitsAndRetries(t *testing.T) {
	r := newRig(2, nil)
	a := r.alloc.AllocOnNode(mem.LineSize, 1)
	conflict := a + mem.Addr(r.cfg.SecondaryBytes)
	r.alloc.AllocOnNode(int(conflict-a)+mem.LineSize, 1)
	r.writeLatency(t, 0, a)
	fired := false
	r.nodes[0].Read(conflict, sim.Func(func() {
		// Immediately re-read the just-evicted line while its
		// writeback is still in flight.
		r.nodes[0].Read(a, sim.Func(func() { fired = true }))
	}))
	r.k.Run(nil)
	if !fired {
		t.Fatal("read issued during writeback never completed")
	}
	if err := CheckInvariants(r.nodes); err != nil {
		t.Errorf("invariants: %v", err)
	}
}

func TestWriteBufferCoalescesSameLine(t *testing.T) {
	r := newRig(2, nil)
	a := r.alloc.AllocOnNode(mem.LineSize, 1)
	retired := 0
	r.nodes[0].WBEnqueue(a, false, sim.Func(func() { retired++ }))
	r.nodes[0].WBEnqueue(a+4, false, sim.Func(func() { retired++ }))
	r.k.Run(nil)
	if retired != 2 {
		t.Fatalf("retired = %d, want 2", retired)
	}
	if r.sts[0].WriteMisses != 1 {
		t.Errorf("WriteMisses = %d, want 1 (coalesced)", r.sts[0].WriteMisses)
	}
}

func TestWriteBufferCapacity(t *testing.T) {
	r := newRig(2, func(c *config.Config) { c.WriteBufferDepth = 2; c.MaxOutstandingWrites = 1 })
	base := r.alloc.AllocOnNode(16*mem.LineSize, 1)
	if !r.nodes[0].WBEnqueue(base, false, nil) {
		t.Fatal("first enqueue rejected")
	}
	if !r.nodes[0].WBEnqueue(base+mem.LineSize, false, nil) {
		t.Fatal("second enqueue rejected")
	}
	if r.nodes[0].WBEnqueue(base+2*mem.LineSize, false, nil) {
		t.Fatal("third enqueue accepted by a 2-entry buffer")
	}
	spaced := false
	r.nodes[0].WBOnSpace(sim.Func(func() { spaced = true }))
	r.k.Run(nil)
	if !spaced {
		t.Error("space waiter never notified")
	}
}

func TestReleaseWaitsForPriorWritesAndAcks(t *testing.T) {
	r := newRig(4, nil)
	data := r.alloc.AllocOnNode(mem.LineSize, 3)
	lock := r.alloc.AllocOnNode(mem.LineSize, 0)
	// Give nodes 1 and 2 shared copies of data so node 0's write
	// generates invalidations and acks.
	r.readLatency(t, 1, data)
	r.readLatency(t, 2, data)

	var writeDone, releaseDone sim.Time
	r.nodes[0].WBEnqueue(data, false, sim.Func(func() { writeDone = r.k.Now() }))
	r.nodes[0].WBEnqueue(lock, true, sim.Func(func() { releaseDone = r.k.Now() }))
	r.k.Run(nil)
	if releaseDone <= writeDone {
		t.Errorf("release retired at %d, write at %d: release must wait", releaseDone, writeDone)
	}
	// The release must also wait for the invalidation acks, which trail
	// the ownership grant by at least a network hop.
	if releaseDone < writeDone+20 {
		t.Errorf("release retired %d cycles after write; expected to wait for acks", releaseDone-writeDone)
	}
}

func TestWritePipeliningUnderRC(t *testing.T) {
	// Two independent remote writes: with MaxOutstandingWrites >= 2 they
	// overlap; the second must finish well before 2x the single latency.
	r := newRig(2, nil)
	a := r.alloc.AllocOnNode(mem.LineSize, 1)
	b := r.alloc.AllocOnNode(mem.LineSize, 1)
	var lastRetire sim.Time
	r.nodes[0].WBEnqueue(a, false, sim.Func(func() { lastRetire = r.k.Now() }))
	r.nodes[0].WBEnqueue(b, false, sim.Func(func() { lastRetire = r.k.Now() }))
	r.k.Run(nil)
	if lastRetire >= 128 {
		t.Errorf("two pipelined remote writes took %d cycles; expected < 2x64 due to overlap", lastRetire)
	}
	if lastRetire <= 64 {
		t.Errorf("two writes finished in %d cycles, faster than one write is possible", lastRetire)
	}
}

func TestPrefetchInstallsAndDemandHits(t *testing.T) {
	r := newRig(2, nil)
	a := r.alloc.AllocOnNode(mem.LineSize, 1)
	if !r.nodes[0].PFEnqueue(a, false) {
		t.Fatal("prefetch rejected")
	}
	r.k.Run(nil)
	if got := r.nodes[0].ClassifyRead(a); got != ClassPrimary {
		t.Errorf("post-prefetch class = %v, want primary hit", got)
	}
	if r.nodes[0].sec.State(mem.LineOf(a)) != Shared {
		t.Error("read prefetch should install a Shared copy (no exclusive grant by default)")
	}
}

func TestPrefetchExclAcquiresOwnership(t *testing.T) {
	r := newRig(2, nil)
	a := r.alloc.AllocOnNode(mem.LineSize, 1)
	r.nodes[0].PFEnqueue(a, true)
	r.k.Run(nil)
	if r.nodes[0].sec.State(mem.LineOf(a)) != Dirty {
		t.Error("read-exclusive prefetch did not install Dirty")
	}
	// A subsequent write retires in 2 cycles (owned by secondary).
	if got := r.writeLatency(t, 0, a); got != 2 {
		t.Errorf("write after pf-excl = %d, want 2", got)
	}
}

func TestUselessPrefetchDiscarded(t *testing.T) {
	r := newRig(2, nil)
	a := r.alloc.AllocOnNode(mem.LineSize, 1)
	r.readLatency(t, 0, a)
	r.nodes[0].PFEnqueue(a, false)
	r.k.Run(nil)
	if r.sts[0].PrefetchUseless != 1 {
		t.Errorf("PrefetchUseless = %d, want 1", r.sts[0].PrefetchUseless)
	}
}

func TestDemandMergesWithInFlightPrefetch(t *testing.T) {
	r := newRig(2, nil)
	a := r.alloc.AllocOnNode(mem.LineSize, 1)
	r.nodes[0].PFEnqueue(a, false)
	var demandDone sim.Time
	// Let the prefetch start, then issue the demand read mid-flight.
	r.k.AtActor(20, sim.Func(func() {
		r.nodes[0].Read(a, sim.Func(func() { demandDone = r.k.Now() }))
	}))
	r.k.Run(nil)
	if demandDone == 0 {
		t.Fatal("demand read never completed")
	}
	if r.sts[0].PrefetchLate != 1 {
		t.Errorf("PrefetchLate = %d, want 1", r.sts[0].PrefetchLate)
	}
	if r.sts[0].ReadMisses != 0 {
		t.Errorf("ReadMisses = %d, want 0 (merged with prefetch)", r.sts[0].ReadMisses)
	}
	// The merged demand completes faster than a fresh remote miss.
	if demandDone >= 20+71 {
		t.Errorf("merged demand read completed at %d; prefetch hid no latency", demandDone)
	}
}

func TestPrefetchBufferCapacityAndSpace(t *testing.T) {
	r := newRig(2, func(c *config.Config) { c.PrefetchBufferDepth = 2 })
	base := r.alloc.AllocOnNode(8*mem.LineSize, 1)
	// Fill the buffer synchronously before the drain event runs.
	ok1 := r.nodes[0].PFEnqueue(base, false)
	ok2 := r.nodes[0].PFEnqueue(base+mem.LineSize, false)
	ok3 := r.nodes[0].PFEnqueue(base+2*mem.LineSize, false)
	if !ok1 || !ok2 {
		t.Fatal("enqueues into empty buffer rejected")
	}
	if ok3 {
		t.Fatal("third enqueue accepted by a 2-entry buffer")
	}
	spaced := false
	r.nodes[0].PFOnSpace(sim.Func(func() { spaced = true }))
	r.k.Run(nil)
	if !spaced {
		t.Error("prefetch space waiter never notified")
	}
}

func TestInvalidationDuringReadMissInstallsThenInvalidates(t *testing.T) {
	r := newRig(3, nil)
	a := r.alloc.AllocOnNode(mem.LineSize, 1)
	// Node 0 starts a read miss; node 2's write is processed at the home
	// while the fill is still in flight.
	var readDone bool
	r.nodes[0].Read(a, sim.Func(func() { readDone = true }))
	r.k.AtActor(30, sim.Func(func() { r.nodes[2].AcquireOwnership(a, sim.Func(func() {})) }))
	r.k.Run(nil)
	if !readDone {
		t.Fatal("read never completed")
	}
	if err := CheckInvariants(r.nodes); err != nil {
		t.Errorf("invariants: %v", err)
	}
}

func TestContentionSerializesAtHome(t *testing.T) {
	// All nodes read distinct lines homed on node 0: the home memory
	// controller serializes, so the last completion is pushed out.
	r := newRig(8, nil)
	base := r.alloc.AllocOnNode(64*mem.LineSize, 0)
	var last sim.Time
	for i := 1; i < 8; i++ {
		a := base + mem.Addr(i)*mem.LineSize
		node := r.nodes[i]
		node.Read(a, sim.Func(func() {
			if r.k.Now() > last {
				last = r.k.Now()
			}
		}))
	}
	r.k.Run(nil)
	if last <= 71 {
		t.Errorf("contended reads all finished in %d, expected queueing beyond 71", last)
	}
}

func TestClassify(t *testing.T) {
	r := newRig(2, nil)
	a := r.alloc.AllocOnNode(mem.LineSize, 0)
	if got := r.nodes[0].ClassifyRead(a); got != ClassMiss {
		t.Errorf("cold read class = %v, want miss", got)
	}
	if got := r.nodes[0].ClassifyWrite(a); got != ClassMiss {
		t.Errorf("cold write class = %v, want miss", got)
	}
	r.readLatency(t, 0, a)
	if got := r.nodes[0].ClassifyRead(a); got != ClassPrimary {
		t.Errorf("hot read class = %v, want primary", got)
	}
	// The paper's protocol returns shared copies on reads, so a write
	// needs an upgrade.
	if got := r.nodes[0].ClassifyWrite(a); got != ClassMiss {
		t.Errorf("shared write class = %v, want miss (upgrade needed)", got)
	}
	r.writeLatency(t, 0, a)
	if got := r.nodes[0].ClassifyWrite(a); got != ClassSecondary {
		t.Errorf("owned write class = %v, want secondary", got)
	}
}

// Protocol stress: random reads/writes/prefetches from every node over a
// small hot line set, then quiescence invariants. This is the coherence
// safety property test.
func TestProtocolRandomStressInvariants(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 7, 42, 1991} {
		rng := rand.New(rand.NewSource(seed))
		r := newRig(4, func(c *config.Config) {
			c.PrimaryBytes = 256 // tiny caches force evictions
			c.SecondaryBytes = 512
		})
		base := r.alloc.Alloc(256 * mem.LineSize)
		lines := 64
		ops := 600
		for i := 0; i < ops; i++ {
			node := r.nodes[rng.Intn(4)]
			a := base + mem.Addr(rng.Intn(lines))*mem.LineSize
			when := sim.Time(rng.Intn(20000))
			switch rng.Intn(4) {
			case 0:
				r.k.AtActor(when, sim.Func(func() {
					if node.ClassifyRead(a) != ClassPrimary {
						node.Read(a, sim.Func(func() {}))
					}
				}))
			case 1:
				r.k.AtActor(when, sim.Func(func() { node.WBEnqueue(a, false, nil) }))
			case 2:
				r.k.AtActor(when, sim.Func(func() { node.PFEnqueue(a, rng.Intn(2) == 0) }))
			case 3:
				r.k.AtActor(when, sim.Func(func() { node.AcquireOwnership(a, sim.Func(func() {})) }))
			}
		}
		r.k.Run(nil)
		if err := CheckInvariants(r.nodes); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// Determinism: the same stress schedule produces the identical event count
// and final cache states.
func TestProtocolDeterminism(t *testing.T) {
	run := func() (uint64, sim.Time) {
		rng := rand.New(rand.NewSource(99))
		r := newRig(4, func(c *config.Config) {
			c.PrimaryBytes = 256
			c.SecondaryBytes = 512
		})
		base := r.alloc.Alloc(64 * mem.LineSize)
		for i := 0; i < 300; i++ {
			node := r.nodes[rng.Intn(4)]
			a := base + mem.Addr(rng.Intn(32))*mem.LineSize
			when := sim.Time(rng.Intn(5000))
			if rng.Intn(2) == 0 {
				r.k.AtActor(when, sim.Func(func() {
					if node.ClassifyRead(a) != ClassPrimary {
						node.Read(a, sim.Func(func() {}))
					}
				}))
			} else {
				r.k.AtActor(when, sim.Func(func() { node.WBEnqueue(a, false, nil) }))
			}
		}
		r.k.Run(nil)
		return r.k.Events(), r.k.Now()
	}
	e1, t1 := run()
	e2, t2 := run()
	if e1 != e2 || t1 != t2 {
		t.Errorf("nondeterministic: run1=(%d events, t=%d) run2=(%d events, t=%d)", e1, t1, e2, t2)
	}
}

// TestCheckInvariantsReportsLowestDirtyLine: three directory entries say
// Dirty at a node that caches none of the lines. Each page is read at its
// home, in page and line order, so the error names the lowest line at the
// lowest home, although home 2's line sits on a lower page than home 1's.
// The entries are created highest line first, so the entry store holds
// them in the opposite order to the lines.
func TestCheckInvariantsReportsLowestDirtyLine(t *testing.T) {
	r := newRig(4, nil)
	other := r.alloc.AllocOnNode(mem.LineSize, 2)
	lo := r.alloc.AllocOnNode(mem.LineSize, 1)
	hi := r.alloc.AllocOnNode(mem.PageSize, 1) // the next page
	for _, a := range []mem.Addr{hi, lo, other} {
		e := r.nodes[r.alloc.Home(a)].entry(mem.LineOf(a))
		e.state, e.owner = DirDirty, 2
	}
	err := CheckInvariants(r.nodes)
	if err == nil {
		t.Fatal("CheckInvariants accepted Dirty entries whose owner caches nothing")
	}
	want := fmt.Sprintf("says line %#x dirty at node 2", mem.LineOf(lo))
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not name the lower line (want %q)", err, want)
	}
}

// TestCheckInvariantsReportsCopyWithoutEntry: a cached copy whose line
// never reached its home is a violation, also when the line's page
// already has directory storage (its slot is untouched).
func TestCheckInvariantsReportsCopyWithoutEntry(t *testing.T) {
	r := newRig(4, nil)
	a := r.alloc.AllocOnNode(2*mem.LineSize, 1)
	r.readLatency(t, 0, a+mem.LineSize) // gives the page a directory index
	if err := CheckInvariants(r.nodes); err != nil {
		t.Fatalf("invariants before the stray copy: %v", err)
	}
	if r.nodes[1].lookup(mem.LineOf(a)) != nil {
		t.Fatal("an untouched slot reads as an entry")
	}
	r.nodes[2].sec.Install(mem.LineOf(a), Shared)
	err := CheckInvariants(r.nodes)
	want := fmt.Sprintf("node 2 caches line %#x with no directory entry", mem.LineOf(a))
	if err == nil || err.Error() != want {
		t.Fatalf("CheckInvariants = %v, want %q", err, want)
	}
}
