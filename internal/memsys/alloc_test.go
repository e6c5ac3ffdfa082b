package memsys

import (
	"runtime"
	"testing"
	"unsafe"

	"latsim/internal/config"
	"latsim/internal/dirset"
	"latsim/internal/mem"
)

// countTask is an allocation-free completion that counts its runs.
type countTask struct{ n int }

func (c *countTask) Act() { c.n++ }

// protocolStep drives line a, homed at node 0, through the directory
// protocol paths that used to allocate, and back to where it started:
// Dirty at node 1.
//   - Nodes 2 and 3 read it together: a dirty-remote read forward to
//     node 1, and node 3's read parks on the busy entry.
//   - Node 1 writes it through its write buffer, invalidating the two
//     other sharers, followed by a release (to line rel, which node 1
//     owns) that waits for the invalidation acks.
//   - Node 2 writes it while node 3 reads it: a dirty-remote write
//     forward, and a second read parked on the busy entry, which is then
//     forwarded to the new owner.
//   - Node 1 writes it again, invalidating nodes 2 and 3.
type protocolStep struct {
	r      *rig
	a, rel mem.Addr
	done   countTask
	parked int // kernel steps that ended with a request parked at the home
	armed  int // kernel steps that ended with node 1's release waiting for acks
}

func newProtocolStep() *protocolStep {
	r := newRig(4, nil)
	p := &protocolStep{r: r, a: r.alloc.AllocOnNode(mem.LineSize, 0), rel: r.alloc.AllocOnNode(mem.LineSize, 0)}
	r.nodes[1].AcquireOwnership(p.a, &p.done)
	r.nodes[1].AcquireOwnership(p.rel, &p.done)
	p.drain()
	return p
}

// drain runs the kernel to quiescence, counting the steps that leave a
// request parked on the home's busy list or the release waiting.
func (p *protocolStep) drain() {
	for p.r.k.Step() {
		if len(p.r.nodes[0].parked) > 0 {
			p.parked++
		}
		if p.r.nodes[1].wb.releaseArmed {
			p.armed++
		}
	}
}

func (p *protocolStep) run() {
	n, a, done := p.r.nodes, p.a, &p.done
	n[2].Read(a, done)
	n[3].Read(a, done)
	p.drain()
	n[1].WBEnqueue(a, false, done)
	n[1].WBEnqueue(p.rel, true, done)
	p.drain()
	n[2].AcquireOwnership(a, done)
	n[3].Read(a, done)
	p.drain()
	n[1].AcquireOwnership(a, done)
	p.drain()
}

// TestProtocolStepAllocatesNothing: once the pools and queues have grown
// to the step's high-water mark, forwards, parked requests, the
// invalidation fan-out and the acks a release waits for allocate nothing.
func TestProtocolStepAllocatesNothing(t *testing.T) {
	p := newProtocolStep()
	home := p.r.nodes[0]
	for i := 0; i < 3; i++ {
		p.run()
	}
	done, parked, armed, invals := p.done.n, p.parked, p.armed, p.r.sts[0].InvalsSent
	p.run()
	if got := p.done.n - done; got != 7 {
		t.Fatalf("one step completed %d accesses, want 7", got)
	}
	if p.parked == parked {
		t.Fatal("no request parked on the busy entry during a step")
	}
	if p.armed == armed {
		t.Fatal("the release never waited for invalidation acks during a step")
	}
	if got := p.r.sts[0].InvalsSent - invals; got != 4 {
		t.Fatalf("one step sent %d invalidations, want 4", got)
	}
	if e := home.lookup(mem.LineOf(p.a)); e.state != DirDirty || e.owner != 1 || e.busy {
		t.Fatalf("step left the entry state=%d owner=%d busy=%v, want Dirty at node 1", e.state, e.owner, e.busy)
	}
	if err := CheckInvariants(p.r.nodes); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	if allocs := testing.AllocsPerRun(20, p.run); allocs != 0 {
		t.Errorf("protocol step allocates %.1f objects, want 0", allocs)
	}
}

// BenchmarkProtocolStep measures the step of TestProtocolStepAllocatesNothing;
// CI asserts it reports 0 allocs/op.
func BenchmarkProtocolStep(b *testing.B) {
	p := newProtocolStep()
	for i := 0; i < 3; i++ {
		p.run()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.run()
	}
}

// TestSpaceWaitsAllocateNothing: the waiter a full write or prefetch
// buffer registers is dequeued in place when a slot frees, so the next
// wait reuses the queue's storage.
func TestSpaceWaitsAllocateNothing(t *testing.T) {
	r := newRig(1, func(c *config.Config) { c.WriteBufferDepth = 1; c.PrefetchBufferDepth = 1 })
	n, a := r.nodes[0], r.alloc.AllocOnNode(mem.LineSize, 0)
	// Owning the line makes each buffered write retire after the ownership
	// check and each prefetch of it a discard.
	var owned, waited countTask
	n.AcquireOwnership(a, &owned)
	r.k.Run(nil)
	for _, tc := range []struct {
		name string
		wait func()
	}{
		{"write buffer", func() {
			n.WBEnqueue(a, false, nil)
			n.WBOnSpace(&waited)
			r.k.Run(nil)
		}},
		{"prefetch buffer", func() {
			n.PFEnqueue(a, false)
			n.PFOnSpace(&waited)
			r.k.Run(nil)
		}},
	} {
		before := waited.n
		tc.wait()
		allocs := testing.AllocsPerRun(20, tc.wait)
		if got := waited.n - before; got != 22 {
			t.Fatalf("%s: %d of 22 space waits completed", tc.name, got)
		}
		if allocs != 0 {
			t.Errorf("%s: a space wait allocates %.1f objects, want 0", tc.name, allocs)
		}
	}
}

// TestDirEntryStaysSmall: the directory allocates an entry for every line
// of a page once any line of it reaches its home, so the entry's size
// multiplies into the live heap.
func TestDirEntryStaysSmall(t *testing.T) {
	if size := unsafe.Sizeof(dirEntry{}); size > 16 {
		t.Errorf("dirEntry is %d bytes, want at most 16", size)
	}
}

// TestFanOutsShareFreeLists: every node of a machine draws its records
// from the machine's free lists, so once one invalidation fan-out has
// grown them, fan-outs from seven other homes allocate nothing. (With a
// free list per node, each new home would grow its own list of network
// messages to the fan-out's width.)
func TestFanOutsShareFreeLists(t *testing.T) {
	const procs, homes = 64, 8
	const writer = procs - 1
	r := newRig(procs, nil)
	var done countTask
	lines := make([]mem.Addr, homes)
	for h := range lines {
		// Each line takes its own cache set, so the writer's dirty copy of
		// one is not evicted (and written back) by the next.
		lines[h] = r.alloc.AllocOnNode(mem.PageSize, h) + mem.Addr(h*mem.LineSize)
		for id := 0; id < procs; id++ {
			r.nodes[id].Read(lines[h], &done)
			r.k.Run(nil)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for h, a := range lines {
		invals := r.sts[h].InvalsSent
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r.nodes[writer].AcquireOwnership(a, &done)
		r.k.Run(nil)
		runtime.ReadMemStats(&after)
		allocs := after.Mallocs - before.Mallocs
		if got := r.sts[h].InvalsSent - invals; got != procs-1 {
			t.Fatalf("home %d sent %d invalidations, want %d", h, got, procs-1)
		}
		if h == 0 && allocs == 0 {
			t.Fatal("the first fan-out allocated nothing; the measurement is not seeing the free lists grow")
		}
		if h > 0 && allocs != 0 {
			t.Errorf("the fan-out from home %d allocates %d objects, want 0", h, allocs)
		}
	}
	if done.n != homes*procs+homes {
		t.Fatalf("%d of %d accesses completed", done.n, homes*procs+homes)
	}
}

// TestFirstTouchAllocatesNothing: a line's sharer set is a value inside
// its directory entry, so on machines of up to 64 nodes the first request
// for a line of a page whose chunk exists, and the first sharer it adds,
// allocate nothing in any organization.
func TestFirstTouchAllocatesNothing(t *testing.T) {
	for _, procs := range []int{16, 64} {
		for _, org := range []dirset.Org{dirset.FullMap, dirset.LimitedPtr, dirset.CoarseVector} {
			r := newRig(procs, func(c *config.Config) { c.DirOrg = org })
			h := r.nodes[0]
			l := mem.LineOf(r.alloc.AllocOnNode(mem.PageSize, 0))
			h.entry(l) // allocates the page's chunk
			allocs := testing.AllocsPerRun(100, func() {
				l++
				if h.lookup(l) != nil {
					t.Fatalf("line %#x has an entry before its first request", l)
				}
				h.sharerAdd(h.entry(l), procs-1)
			})
			if allocs != 0 {
				t.Errorf("%v at %d nodes: a first touch allocates %.1f objects, want 0", org, procs, allocs)
			}
			if !h.sharers(h.lookup(l)).Contains(procs - 1) {
				t.Errorf("%v at %d nodes: node %d missing from the last line's sharers", org, procs, procs-1)
			}
		}
	}
}
