package memsys

import (
	"runtime"
	"slices"
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

// TestDirEntryStaysSmall: the directory holds an entry for every line a
// request has reached the home of, so the entry's size multiplies into
// the live heap.
func TestDirEntryStaysSmall(t *testing.T) {
	if size := unsafe.Sizeof(dirEntry{}); size > 16 {
		t.Errorf("dirEntry is %d bytes, want at most 16", size)
	}
}

// TestSecLinePacksTagAndState: a secondary-cache way is one word, and
// packing a line and a state gives both back, also for a tag past 32
// bits; a state wider than 2 bits cannot reach the tag.
func TestSecLinePacksTagAndState(t *testing.T) {
	if size := unsafe.Sizeof(secLine(0)); size != 8 {
		t.Errorf("secLine is %d bytes, want 8", size)
	}
	for _, tag := range []mem.Line{1, 1<<40 + 5} {
		for _, st := range []LineState{Invalid, Shared, Dirty} {
			if s := packLine(tag, st); s.tag() != tag || s.state() != st {
				t.Errorf("packLine(%#x, %v) unpacks to (%#x, %v)", tag, st, s.tag(), s.state())
			}
		}
		if s := packLine(tag, LineState(0xff)); s.tag() != tag {
			t.Errorf("packLine(%#x, 0xff) unpacks to tag %#x", tag, s.tag())
		}
	}
}

// TestDirectoryHoldsTouchedLinesOnly: a page's first request gives it an
// index, and each line's first request takes the next entry of the
// store, so the store holds the touched lines only, whatever their order,
// and an entry stays where it is while the store grows.
func TestDirectoryHoldsTouchedLinesOnly(t *testing.T) {
	const procs, pages, stride = 16, 40, 8
	r := newRig(procs, nil)
	first := mem.LineOf(r.alloc.Alloc(pages * mem.PageSize))
	last := first + pages*mem.LinesPerPage - 1
	homeOf := func(l mem.Line) *Node { return r.nodes[r.alloc.Home(mem.AddrOf(l))] }
	var early *dirEntry
	var earlyLine mem.Line
	touched := 0
	for l := last; l >= first; l-- { // highest line first: store order is not line order
		if (l-first)%stride != 0 {
			continue
		}
		e := homeOf(l).entry(l)
		if touched == 0 {
			early, earlyLine = e, l
			e.state, e.owner = DirDirty, procs-1
		}
		touched++
	}
	if touched-1 < 1000 {
		t.Fatalf("only %d first touches after the early entry, want at least 1000", touched-1)
	}
	sh := r.nodes[0].sh
	if want := (touched + dirBlockLen - 1) / dirBlockLen; len(sh.blocks) != want {
		t.Errorf("%d touched lines fill %d store blocks, want %d", touched, len(sh.blocks), want)
	}
	if int(sh.entries) != touched {
		t.Errorf("the store holds %d entries for %d touched lines", sh.entries, touched)
	}
	indexes := 0
	for _, ix := range sh.dir {
		if ix != nil {
			indexes++
		}
	}
	if indexes != pages {
		t.Errorf("the table holds %d page indexes, want %d", indexes, pages)
	}
	for l := first; l <= last; l++ {
		e := homeOf(l).lookup(l)
		if (l-first)%stride != 0 {
			if e != nil {
				t.Fatalf("untouched line %#x has an entry", l)
			}
		} else if e == nil {
			t.Fatalf("touched line %#x has no entry", l)
		}
	}
	if e := homeOf(earlyLine).lookup(earlyLine); e != early || e.state != DirDirty || e.owner != procs-1 {
		t.Errorf("line %#x's entry moved while the store grew", earlyLine)
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
// its directory entry, and the entry store grows a 256-entry block at a
// time, so on machines of up to 64 nodes the first requests for lines of
// pages that have an index, and the first sharer each adds, allocate one
// block per 256 lines and nothing else, in any organization. The count
// is taken over 1,024 first touches (testing.AllocsPerRun truncates its
// average, which would hide the blocks); the store's list of blocks is
// given room beforehand, as append's doubling amortizes its growth.
func TestFirstTouchAllocatesNothing(t *testing.T) {
	const pages, touches = 5, 1024
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, procs := range []int{16, 64} {
		for _, org := range []dirset.Org{dirset.FullMap, dirset.LimitedPtr, dirset.CoarseVector} {
			r := newRig(procs, func(c *config.Config) { c.DirOrg = org })
			h := r.nodes[0]
			first := mem.LineOf(r.alloc.AllocOnNode(pages*mem.PageSize, 0))
			for p := 0; p < pages; p++ {
				h.entry(first + mem.Line(p*mem.LinesPerPage)) // allocates the page's index
			}
			sh := h.sh
			sh.blocks = slices.Grow(sh.blocks, touches/dirBlockLen)
			blocks := len(sh.blocks)
			l := first
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for n := 0; n < touches; n++ {
				if l++; l%mem.LinesPerPage == 0 {
					l++ // the page's first line, touched above
				}
				if h.lookup(l) != nil {
					t.Fatalf("line %#x has an entry before its first request", l)
				}
				h.sharerAdd(h.entry(l), procs-1)
			}
			runtime.ReadMemStats(&after)
			if allocs := after.Mallocs - before.Mallocs; allocs > touches/dirBlockLen {
				t.Errorf("%v at %d nodes: %d first touches allocate %d objects, want at most %d",
					org, procs, touches, allocs, touches/dirBlockLen)
			}
			if got := len(sh.blocks) - blocks; got != touches/dirBlockLen {
				t.Errorf("%v at %d nodes: %d first touches added %d store blocks, want %d",
					org, procs, touches, got, touches/dirBlockLen)
			}
			if !h.sharers(h.lookup(l)).Contains(procs - 1) {
				t.Errorf("%v at %d nodes: node %d missing from the last line's sharers", org, procs, procs-1)
			}
		}
	}
}
