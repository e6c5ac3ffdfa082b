package memsys

import (
	"testing"

	"latsim/internal/config"
	"latsim/internal/mem"
	"latsim/internal/sim"
)

func TestSetAssociativityAvoidsConflictMisses(t *testing.T) {
	// Two lines mapping to the same direct-mapped set thrash a 1-way
	// cache but coexist in a 2-way cache.
	mk := func(ways int) (*rig, mem.Addr, mem.Addr) {
		r := newRig(2, func(c *config.Config) { c.SecondaryWays = ways })
		a := r.alloc.AllocOnNode(mem.LineSize, 0)
		block := r.alloc.AllocOnNode(2*r.cfg.SecondaryBytes, 0)
		// Find a line in block with the same secondary set index as a.
		sets := uint64(r.cfg.SecondaryBytes) / mem.LineSize / uint64(ways)
		want := uint64(mem.LineOf(a)) % sets
		b := block
		for uint64(mem.LineOf(b))%sets != want {
			b += mem.LineSize
		}
		return r, a, b
	}

	// Direct-mapped: a, b, a again -> third access misses the secondary.
	r, a, b := mk(1)
	r.readLatency(t, 0, a)
	r.readLatency(t, 0, b)
	if got := r.nodes[0].sec.State(mem.LineOf(a)); got != Invalid {
		t.Fatalf("direct-mapped: first line still present (state %v)", got)
	}

	// 2-way: both lines fit.
	r2, a2, b2 := mk(2)
	r2.readLatency(t, 0, a2)
	r2.readLatency(t, 0, b2)
	if got := r2.nodes[0].sec.State(mem.LineOf(a2)); got == Invalid {
		t.Fatal("2-way: first line evicted despite a free way")
	}
	if got := r2.nodes[0].sec.State(mem.LineOf(b2)); got == Invalid {
		t.Fatal("2-way: second line missing")
	}
}

func TestLRUReplacementOrder(t *testing.T) {
	c := newSecondaryCache(4*mem.LineSize, 4) // one set, four ways
	lines := []mem.Line{0x10, 0x20, 0x30, 0x40}
	for _, l := range lines {
		c.Install(l, Shared)
	}
	// Touch 0x10 so 0x20 becomes LRU.
	c.State(0x10)
	v, _, ok := c.Victim(0x50)
	if !ok || v != 0x20 {
		t.Fatalf("victim = %#x (ok=%v), want 0x20", v, ok)
	}
	c.Install(0x50, Shared)
	if c.State(0x20) != Invalid {
		t.Error("LRU line not replaced")
	}
	for _, l := range []mem.Line{0x10, 0x30, 0x40, 0x50} {
		if c.State(l) == Invalid {
			t.Errorf("line %#x unexpectedly evicted", l)
		}
	}
}

func TestAssocInvariantsUnderStress(t *testing.T) {
	r := newRig(4, func(c *config.Config) {
		c.SecondaryWays = 2
		c.PrimaryBytes = 256
		c.SecondaryBytes = 512
	})
	base := r.alloc.Alloc(128 * mem.LineSize)
	for i := 0; i < 400; i++ {
		node := r.nodes[i%4]
		a := base + mem.Addr((i*37%128)*mem.LineSize)
		when := i * 23
		if i%3 == 0 {
			r.k.AtActor(sim.Time(when), sim.Func(func() { node.WBEnqueue(a, false, nil) }))
		} else {
			r.k.AtActor(sim.Time(when), sim.Func(func() {
				if node.ClassifyRead(a) != ClassPrimary {
					node.Read(a, sim.Func(func() {}))
				}
			}))
		}
	}
	r.k.Run(nil)
	if err := CheckInvariants(r.nodes); err != nil {
		t.Fatal(err)
	}
}

// TestCheckInvariantsKeepsLRUOrder: the quiescent invariant sweep must not
// perturb replacement. A dirty line a and a later clean line b share a
// 2-way set, so a is least recently used; after CheckInvariants a third
// line in the set must still evict a and keep b.
func TestCheckInvariantsKeepsLRUOrder(t *testing.T) {
	r := newRig(2, func(c *config.Config) { c.SecondaryWays = 2 })
	stride := mem.Addr(r.cfg.SecondaryBytes / 2) // one set's worth of lines apart
	a := r.alloc.AllocOnNode(3*int(stride), 0)
	b, c := a+stride, a+2*stride
	r.writeLatency(t, 0, a)
	r.readLatency(t, 0, b)
	if err := CheckInvariants(r.nodes); err != nil {
		t.Fatal(err)
	}
	r.readLatency(t, 0, c)
	sec := r.nodes[0].sec
	if sec.Peek(mem.LineOf(a)) != Invalid || sec.Peek(mem.LineOf(b)) != Shared {
		t.Errorf("after the third fill a is %v and b is %v; want a evicted (the LRU way) and b kept",
			sec.Peek(mem.LineOf(a)), sec.Peek(mem.LineOf(b)))
	}
}
