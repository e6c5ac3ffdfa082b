// Package mem defines the simulated shared address space: addresses,
// cache-line and page geometry, and the distributed physical memory
// allocator that maps pages to home nodes.
//
// Physical memory is distributed among the nodes. Unless the application
// asks for placement on a specific node, pages are allocated round-robin
// across all nodes, matching the paper's default policy. Applications
// that optimize locality (MP3D particles, LU owned columns) allocate from
// the shared memory of a specific processor's node.
package mem

import "fmt"

// Addr is a simulated shared-memory address. The simulator models timing
// and coherence state, not data contents; applications keep their data in
// native Go structures and issue references to these addresses.
type Addr uint64

const (
	// LineSize is the cache line size in bytes (16-byte lines in the
	// paper, i.e. four 32-bit words).
	LineSize = 16
	// PageSize is the allocation/placement granularity.
	PageSize = 4096
	// LinesPerPage is the number of cache lines in one page.
	LinesPerPage = PageSize / LineSize
)

// Line identifies a cache line (an address with the offset stripped).
type Line uint64

// LineOf returns the cache line containing a.
func LineOf(a Addr) Line { return Line(a / LineSize) }

// AddrOf returns the base address of line l.
func AddrOf(l Line) Addr { return Addr(l) * LineSize }

// PageOf returns the page number containing a.
func PageOf(a Addr) uint64 { return uint64(a) / PageSize }

// arena is a partially used page owned by one placement domain.
type arena struct {
	cur  Addr // next free byte in the current page; 0 if none
	left int  // bytes remaining in the current page
}

// Allocator hands out simulated shared memory and records the home node of
// every allocated page. Small allocations from the same placement domain
// (a specific node, or the round-robin pool) pack into shared pages at
// cache-line granularity, so data structures lay out realistically.
type Allocator struct {
	nodes  int
	next   Addr // next fresh page
	rrNode int  // next node for round-robin page placement
	// pageHome[p] is the home node of page p. Pages are placed densely
	// and in ascending order from page 1 (address 0 stays invalid), so
	// slot 0 holds -1 and the slice ends at the last allocated page.
	pageHome []int

	perNode []arena // partial pages for node-targeted allocation
	rr      arena   // partial page for round-robin small allocations

	total uint64 // sum of line-aligned allocation sizes (Table 2)
}

// NewAllocator creates an allocator for a machine with the given number of
// nodes.
func NewAllocator(nodes int) *Allocator {
	if nodes <= 0 {
		panic("mem: allocator needs at least one node")
	}
	return &Allocator{
		nodes:    nodes,
		next:     PageSize, // keep address 0 invalid
		pageHome: []int{-1},
		perNode:  make([]arena, nodes),
	}
}

// Alloc allocates size bytes of shared memory with round-robin page
// placement and returns the base (line-aligned) address.
func (a *Allocator) Alloc(size int) Addr {
	return a.alloc(size, -1)
}

// AllocOnNode allocates size bytes with all pages homed on node.
func (a *Allocator) AllocOnNode(size, node int) Addr {
	if node < 0 || node >= a.nodes {
		panic(fmt.Sprintf("mem: AllocOnNode: node %d out of range [0,%d)", node, a.nodes))
	}
	return a.alloc(size, node)
}

func (a *Allocator) alloc(size, node int) Addr {
	if size <= 0 {
		panic("mem: allocation size must be positive")
	}
	// Round up to line granularity so distinct objects never share lines
	// unintentionally.
	size = (size + LineSize - 1) / LineSize * LineSize
	a.total += uint64(size)

	if size >= PageSize {
		// Whole pages: page-aligned, each page placed.
		base := a.next
		pages := (size + PageSize - 1) / PageSize
		for i := 0; i < pages; i++ {
			a.placePage(node)
			a.next += PageSize
		}
		return base
	}

	ar := &a.rr
	if node >= 0 {
		ar = &a.perNode[node]
	}
	if ar.left < size {
		// Start a new page for this domain.
		a.placePage(node)
		ar.cur = a.next
		ar.left = PageSize
		a.next += PageSize
	}
	base := ar.cur
	ar.cur += Addr(size)
	ar.left -= size
	return base
}

// placePage records the home of the fresh page at a.next: node, or the
// next round-robin node when node < 0.
func (a *Allocator) placePage(node int) {
	if node < 0 {
		node = a.rrNode
		a.rrNode = (a.rrNode + 1) % a.nodes
	}
	a.pageHome = append(a.pageHome, node)
}

// Home returns the home node of the page containing addr. Referencing
// unallocated memory panics: it always indicates an application bug.
func (a *Allocator) Home(addr Addr) int {
	if a.Allocated(addr) {
		return a.pageHome[PageOf(addr)]
	}
	panic(fmt.Sprintf("mem: reference to unallocated address %#x", uint64(addr)))
}

// Allocated reports whether addr lies in allocated memory.
func (a *Allocator) Allocated(addr Addr) bool {
	p := PageOf(addr)
	return p < uint64(len(a.pageHome)) && a.pageHome[p] >= 0
}

// TotalBytes returns the total bytes of shared memory requested
// (line-aligned). This feeds the "Shared Data Size" column of Table 2.
func (a *Allocator) TotalBytes() uint64 { return a.total }

// Nodes returns the number of nodes the allocator distributes over.
func (a *Allocator) Nodes() int { return a.nodes }
