package mem

import (
	"testing"
	"testing/quick"
)

func TestLineGeometry(t *testing.T) {
	if LineOf(0) != 0 || LineOf(15) != 0 || LineOf(16) != 1 || LineOf(31) != 1 {
		t.Error("LineOf boundaries wrong")
	}
	if AddrOf(LineOf(0x1234)) != 0x1230 {
		t.Errorf("AddrOf(LineOf(0x1234)) = %#x, want 0x1230", AddrOf(LineOf(0x1234)))
	}
}

func TestRoundRobinPlacement(t *testing.T) {
	a := NewAllocator(4)
	base := a.Alloc(4 * PageSize)
	for i := 0; i < 4; i++ {
		addr := base + Addr(i*PageSize)
		if a.Home(addr) != i {
			t.Errorf("page %d homed on %d, want %d", i, a.Home(addr), i)
		}
	}
}

func TestNodePlacement(t *testing.T) {
	a := NewAllocator(8)
	for node := 0; node < 8; node++ {
		base := a.AllocOnNode(2*PageSize, node)
		if a.Home(base) != node || a.Home(base+PageSize) != node {
			t.Errorf("AllocOnNode(%d) pages not homed on %d", node, node)
		}
	}
}

func TestSmallAllocationsPackIntoPages(t *testing.T) {
	a := NewAllocator(4)
	first := a.AllocOnNode(40, 2) // rounds to 48
	second := a.AllocOnNode(40, 2)
	if PageOf(first) != PageOf(second) {
		t.Error("two small same-node allocations did not share a page")
	}
	if second != first+48 {
		t.Errorf("second = %#x, want %#x (line-aligned packing)", second, first+48)
	}
	if a.Home(first) != 2 {
		t.Errorf("home = %d, want 2", a.Home(first))
	}
}

func TestDistinctObjectsNeverShareLines(t *testing.T) {
	a := NewAllocator(2)
	x := a.Alloc(1)
	y := a.Alloc(1)
	if LineOf(x) == LineOf(y) {
		t.Error("two allocations share a cache line")
	}
}

func TestUnallocatedReferencePanics(t *testing.T) {
	a := NewAllocator(2)
	defer func() {
		if recover() == nil {
			t.Error("Home on unallocated address did not panic")
		}
	}()
	a.Home(Addr(1 << 40))
}

// TestHomePanicsOutsideAllocatedPages: page 0 (address 0 stays invalid)
// and the first page past the last allocation have no home.
func TestHomePanicsOutsideAllocatedPages(t *testing.T) {
	a := NewAllocator(2)
	base := a.Alloc(3 * PageSize)
	last := base + 2*PageSize
	if a.Home(last) != 0 || !a.Allocated(last) {
		t.Fatalf("last page: home %d, allocated %v", a.Home(last), a.Allocated(last))
	}
	for _, addr := range []Addr{0, PageSize - 1, last + PageSize} {
		if a.Allocated(addr) {
			t.Errorf("Allocated(%#x) = true", uint64(addr))
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Home(%#x) did not panic", uint64(addr))
				}
			}()
			a.Home(addr)
		}()
	}
}

func TestAllocatedPredicate(t *testing.T) {
	a := NewAllocator(2)
	base := a.Alloc(100)
	if !a.Allocated(base) {
		t.Error("Allocated(base) = false")
	}
	if a.Allocated(Addr(1 << 40)) {
		t.Error("Allocated(garbage) = true")
	}
}

func TestTotalBytesTracksLineRounded(t *testing.T) {
	a := NewAllocator(4)
	a.Alloc(10)          // -> 16
	a.AllocOnNode(17, 1) // -> 32
	if a.TotalBytes() != 48 {
		t.Errorf("TotalBytes = %d, want 48", a.TotalBytes())
	}
}

// Property: every allocation is line-aligned, every byte in it maps to the
// requested node (for node allocs), and allocations never overlap.
func TestAllocatorProperties(t *testing.T) {
	type alloc struct{ base, end Addr }
	f := func(sizes []uint16, nodeSel []uint8) bool {
		a := NewAllocator(16)
		var all []alloc
		for i, s := range sizes {
			size := int(s)%9000 + 1
			var base Addr
			node := -1
			if i < len(nodeSel) {
				node = int(nodeSel[i]) % 16
			}
			if node >= 0 {
				base = a.AllocOnNode(size, node)
			} else {
				base = a.Alloc(size)
			}
			if base%LineSize != 0 {
				return false
			}
			rounded := Addr((size + LineSize - 1) / LineSize * LineSize)
			end := base + rounded
			if node >= 0 {
				for p := PageOf(base); p <= PageOf(end-1); p++ {
					if a.pageHome[p] != node {
						return false
					}
				}
			}
			for _, prev := range all {
				if base < prev.end && prev.base < end {
					return false // overlap
				}
			}
			all = append(all, alloc{base, end})
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
