package check

import (
	"strings"
	"testing"

	"latsim/internal/dirset"
	"latsim/internal/mem"
	"latsim/internal/sim"
)

// fakeInsp is a hand-posed machine snapshot: the tests below place the
// directory and caches into specific (legal or illegal) states and
// assert the checker's verdict.
type fakeInsp struct {
	nodes   int
	state   DirState
	layout  dirset.Layout
	sharers dirset.Set
	owner   int
	busy    bool
	cache   map[int]CacheState
	mshr    map[int]bool
	victim  map[int]bool
}

func (f *fakeInsp) NumNodes() int         { return f.nodes }
func (f *fakeInsp) HomeOf(l mem.Line) int { return 0 }
func (f *fakeInsp) Dir(home int, l mem.Line) (DirState, dirset.View, int, bool) {
	return f.state, f.layout.View(f.sharers), f.owner, f.busy
}
func (f *fakeInsp) CacheState(node int, l mem.Line) CacheState { return f.cache[node] }
func (f *fakeInsp) HasMSHR(node int, l mem.Line) bool          { return f.mshr[node] }
func (f *fakeInsp) HasVictim(node int, l mem.Line) bool        { return f.victim[node] }

// add puts node id in the directory's sharer set.
func (f *fakeInsp) add(id int) { f.layout.Add(&f.sharers, id) }

func newFake() *fakeInsp {
	return &fakeInsp{
		nodes:  4,
		layout: dirset.NewLayout(dirset.FullMap, 4, 0, 0),
		cache:  map[int]CacheState{},
		mshr:   map[int]bool{},
		victim: map[int]bool{},
	}
}

func newChecker(f *fakeInsp, ordered bool) *Checker {
	return New(sim.NewKernel(), f, ordered)
}

const line = mem.Line(7)

func wantClean(t *testing.T, c *Checker) {
	t.Helper()
	if err := c.Err(); err != nil {
		t.Fatalf("unexpected violation: %v", err)
	}
	if c.Violations() != 0 {
		t.Fatalf("Violations() = %d, want 0", c.Violations())
	}
}

func wantViolation(t *testing.T, c *Checker, substr string) {
	t.Helper()
	err := c.Err()
	if err == nil {
		t.Fatalf("expected a violation containing %q, got none", substr)
	}
	if !strings.Contains(err.Error(), substr) {
		t.Fatalf("violation %q does not contain %q", err, substr)
	}
	if c.Violations() == 0 {
		t.Fatal("Err() set but Violations() = 0")
	}
}

func TestCleanSharedState(t *testing.T) {
	f := newFake()
	f.state = DirShared
	f.add(1)
	f.add(3)
	f.cache[1] = CacheShared
	f.cache[3] = CacheShared
	c := newChecker(f, true)
	c.DirEvent(0, line)
	wantClean(t, c)
	if c.Checks() != 1 {
		t.Fatalf("Checks() = %d, want 1", c.Checks())
	}
}

func TestStaleSharerBitIsLegal(t *testing.T) {
	// Silent eviction: the directory still lists node 2 but the copy is
	// gone. DASH tolerates this (the next invalidation is stale).
	f := newFake()
	f.state = DirShared
	f.add(2)
	c := newChecker(f, true)
	c.DirEvent(0, line)
	wantClean(t, c)
}

func TestSingleDirtyOwner(t *testing.T) {
	f := newFake()
	f.state = DirDirty
	f.owner = 1
	f.cache[1] = CacheDirty
	f.cache[2] = CacheDirty
	c := newChecker(f, true)
	// Excuse node 2's copy from sharer-set agreement (invalidation in
	// flight) so the machine-wide dirty count is the check that fires:
	// two dirty copies are illegal even mid-invalidation.
	c.InvalSent(2, line)
	c.DirEvent(0, line)
	wantViolation(t, c, "dirty copies")
}

func TestSharedCopyNotInSharerSet(t *testing.T) {
	f := newFake()
	f.state = DirShared
	f.add(1)
	f.cache[1] = CacheShared
	f.cache[2] = CacheShared // unaccounted copy
	c := newChecker(f, true)
	c.DirEvent(0, line)
	wantViolation(t, c, "not in the directory's sharer set")
}

func TestImpreciseSupersetExcusesCopy(t *testing.T) {
	// An overflowed limited-pointer entry represents every node, so a
	// copy the pointers never tracked still agrees with the directory —
	// the superset rule in action.
	f := newFake()
	f.state = DirShared
	f.layout = dirset.NewLayout(dirset.LimitedPtr, 4, 1, 0)
	f.add(0)
	f.add(1) // overflow → broadcast mode
	f.cache[2] = CacheShared
	c := newChecker(f, true)
	c.DirEvent(0, line)
	wantClean(t, c)
	if f.layout.View(f.sharers).Precise() {
		t.Fatal("test premise broken: the set must be imprecise")
	}
}

func TestCoarseGroupExcusesCopy(t *testing.T) {
	// A coarse-vector group bit covers the whole group: node 3's copy is
	// accounted for by node 2's membership (same 2-node group).
	f := newFake()
	f.state = DirShared
	f.layout = dirset.NewLayout(dirset.CoarseVector, 4, 0, 2)
	f.add(2)
	f.cache[2] = CacheShared
	f.cache[3] = CacheShared
	c := newChecker(f, true)
	c.DirEvent(0, line)
	wantClean(t, c)

	// A copy outside every marked group is still a violation.
	f.cache[0] = CacheShared
	c.DirEvent(0, line)
	wantViolation(t, c, "not in the directory's sharer set")
}

func TestInFlightInvalidationExcusesCopy(t *testing.T) {
	// The home dropped node 2 from the sharer set and sent it an
	// invalidation; until it lands, the copy is legal.
	f := newFake()
	f.state = DirShared
	f.add(1)
	f.cache[1] = CacheShared
	f.cache[2] = CacheShared
	c := newChecker(f, true)
	c.InvalSent(2, line)
	c.DirEvent(0, line)
	wantClean(t, c)

	// The invalidation lands and removes the copy: still clean.
	f.cache[2] = CacheInvalid
	c.InvalApplied(2, line)
	wantClean(t, c)

	// A later event with the copy somehow back is a violation: the
	// excuse was consumed by InvalApplied.
	f.cache[2] = CacheShared
	c.DirEvent(0, line)
	wantViolation(t, c, "not in the directory's sharer set")
}

func TestInvalAppliedNeverSent(t *testing.T) {
	f := newFake()
	c := newChecker(f, true)
	c.InvalApplied(1, line)
	wantViolation(t, c, "never sent")
}

func TestUncachedWithCopy(t *testing.T) {
	f := newFake()
	f.state = DirUncached
	f.cache[3] = CacheShared
	c := newChecker(f, true)
	c.DirEvent(0, line)
	wantViolation(t, c, "directory says is uncached")
}

func TestDirtyUnderShared(t *testing.T) {
	f := newFake()
	f.state = DirShared
	f.add(1)
	f.cache[1] = CacheDirty
	c := newChecker(f, true)
	c.DirEvent(0, line)
	wantViolation(t, c, "directory says is shared")
}

func TestOwnerWithoutDirtyCopy(t *testing.T) {
	f := newFake()
	f.state = DirDirty
	f.owner = 1
	c := newChecker(f, true)
	c.DirEvent(0, line)
	wantViolation(t, c, "recorded owner holds no dirty copy")
}

func TestOwnerExcusedByMSHR(t *testing.T) {
	// Ownership granted, fill still in flight: the owner's MSHR stands
	// in for the dirty copy.
	f := newFake()
	f.state = DirDirty
	f.owner = 1
	f.mshr[1] = true
	c := newChecker(f, true)
	c.DirEvent(0, line)
	wantClean(t, c)

	// Likewise a pending writeback (the dirty copy moved to the victim
	// buffer while the home still records ownership).
	f.mshr[1] = false
	f.victim[1] = true
	c.DirEvent(0, line)
	wantClean(t, c)
}

func TestNonOwnerCopyUnderDirty(t *testing.T) {
	f := newFake()
	f.state = DirDirty
	f.owner = 1
	f.cache[1] = CacheDirty
	f.cache[2] = CacheShared
	c := newChecker(f, true)
	c.DirEvent(0, line)
	wantViolation(t, c, "non-owner copy")
}

func TestMSHRVictimExclusivity(t *testing.T) {
	// The exclusivity invariant is node-local: it fires on the hooks for
	// the node whose buffers changed (fill/invalidation), not on the
	// directory scan.
	f := newFake()
	f.state = DirDirty
	f.owner = 1
	f.cache[1] = CacheDirty
	f.mshr[2] = true
	f.victim[2] = true
	c := newChecker(f, true)
	c.FillApplied(2, line)
	wantViolation(t, c, "both an outstanding miss and a pending writeback")
}

func TestFillAppliedChecksAgreement(t *testing.T) {
	// A fill that installs a copy the directory does not account for is
	// caught by the node-local hook itself.
	f := newFake()
	f.state = DirShared
	f.add(1)
	f.cache[2] = CacheShared
	c := newChecker(f, true)
	c.FillApplied(2, line)
	wantViolation(t, c, "not in the directory's sharer set")
}

func TestBusySuspendsAgreement(t *testing.T) {
	// Mid ownership transfer the directory and caches legitimately
	// disagree; busy suspends every per-node agreement check (but not
	// the machine-wide dirty count).
	f := newFake()
	f.state = DirDirty
	f.owner = 1
	f.busy = true
	f.cache[2] = CacheShared // would violate if not busy
	c := newChecker(f, true)
	c.DirEvent(0, line)
	wantClean(t, c)

	f.cache[1] = CacheDirty
	f.cache[3] = CacheDirty
	c.DirEvent(0, line)
	wantViolation(t, c, "dirty copies")
}

func TestWriteBufferFIFO(t *testing.T) {
	f := newFake()
	c := newChecker(f, true) // ordered: SC/PC
	c.WBEnqueue(1)
	c.WBEnqueue(1)
	c.WBRetire(1, 0)
	c.WBRetire(1, 0)
	wantClean(t, c)

	c.WBEnqueue(1)
	c.WBEnqueue(1)
	c.WBRetire(1, 1)
	wantViolation(t, c, "before older writes")
}

func TestWriteBufferRelaxedRetiresOutOfOrder(t *testing.T) {
	f := newFake()
	c := newChecker(f, false) // RC/WC: out-of-order retirement is legal
	c.WBEnqueue(1)
	c.WBEnqueue(1)
	c.WBRetire(1, 1)
	c.WBRetire(1, 0)
	wantClean(t, c)

	// But retiring a position beyond the buffer never is.
	c.WBEnqueue(1)
	c.WBRetire(1, 5)
	wantViolation(t, c, "retired position 5 of 1")
}

func TestFirstViolationKept(t *testing.T) {
	f := newFake()
	f.state = DirUncached
	f.cache[3] = CacheShared
	c := newChecker(f, true)
	c.DirEvent(0, line)
	first := c.Err()
	c.DirEvent(0, line)
	if c.Err() != first {
		t.Fatal("Err() changed after a later violation; first must be kept")
	}
	if c.Violations() != 2 {
		t.Fatalf("Violations() = %d, want 2", c.Violations())
	}
}

func TestNilCheckerIsDisabled(t *testing.T) {
	var c *Checker
	c.DirEvent(0, line)
	c.FillApplied(1, line)
	c.InvalSent(1, line)
	c.InvalApplied(1, line)
	c.WBEnqueue(1)
	c.WBRetire(1, 0)
	if c.Checks() != 0 || c.Violations() != 0 || c.Err() != nil {
		t.Fatal("nil checker must report zero activity")
	}
}
