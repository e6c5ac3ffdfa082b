// Package memsys implements the DASH-like memory system: the two-level
// lockup-free processor caches, the write and prefetch buffers, the
// distributed directory-based invalidating cache-coherence protocol, and
// the behavioral bus/network contention model.
package memsys

import (
	"latsim/internal/mem"
)

// LineState is the state of a line in the secondary cache. It fits the
// low 2 bits of a secLine.
type LineState uint8

const (
	// Invalid: the line is not present.
	Invalid LineState = iota
	// Shared: a read-only copy; the directory knows this node caches it.
	Shared
	// Dirty: an exclusive, possibly modified copy; this node is the
	// owner recorded in the directory.
	Dirty
)

func (s LineState) String() string {
	switch s {
	case Invalid:
		return "Invalid"
	case Shared:
		return "Shared"
	case Dirty:
		return "Dirty"
	}
	return "?"
}

// primaryCache is the 64 KB (scaled: 2 KB) direct-mapped write-through
// primary data cache. Write-through means it never holds dirty data, so a
// line is simply present or absent.
type primaryCache struct {
	sets []mem.Line // tag per set; 0 = empty (line 0 never used: addr 0 invalid)
	mask uint64
}

func newPrimaryCache(bytes int) *primaryCache {
	n := bytes / mem.LineSize
	if n&(n-1) != 0 {
		panic("memsys: primary cache size must be a power-of-two number of lines")
	}
	return &primaryCache{sets: make([]mem.Line, n), mask: uint64(n - 1)}
}

func (c *primaryCache) index(l mem.Line) int { return int(uint64(l) & c.mask) }

// Present reports whether line l is in the cache.
func (c *primaryCache) Present(l mem.Line) bool { return c.sets[c.index(l)] == l }

// Install fills line l, evicting whatever occupied its set.
func (c *primaryCache) Install(l mem.Line) { c.sets[c.index(l)] = l }

// Invalidate removes line l if present.
func (c *primaryCache) Invalidate(l mem.Line) {
	if i := c.index(l); c.sets[i] == l {
		c.sets[i] = 0
	}
}

// secLine is one secondary-cache way in one word: the line's tag shifted
// left by 2, with its LineState in the low 2 bits. An Invalid way keeps
// its stale tag, which no lookup reads.
type secLine uint64

// packLine makes the way holding line l in state st.
func packLine(l mem.Line, st LineState) secLine { return secLine(l)<<2 | secLine(st&3) }

func (s secLine) tag() mem.Line    { return mem.Line(s >> 2) }
func (s secLine) state() LineState { return LineState(s & 3) }

// secondaryCache is the 256 KB (scaled: 4 KB) write-back secondary cache.
// The paper's machine is direct-mapped (one way); higher associativity is
// supported for the ablation study. Within a set, ways are kept in LRU
// order (index 0 = most recent).
type secondaryCache struct {
	lines []secLine // set i is lines[i*ways : (i+1)*ways]
	ways  int
	mask  uint64
}

func newSecondaryCache(bytes, ways int) *secondaryCache {
	if ways < 1 {
		ways = 1
	}
	n := bytes / mem.LineSize / ways
	if n <= 0 || n&(n-1) != 0 {
		panic("memsys: secondary cache must have a power-of-two number of sets")
	}
	return &secondaryCache{lines: make([]secLine, n*ways), ways: ways, mask: uint64(n - 1)}
}

// find returns l's set and the way holding l, or -1.
func (c *secondaryCache) find(l mem.Line) (set []secLine, way int) {
	i := int(uint64(l)&c.mask) * c.ways
	set = c.lines[i : i+c.ways : i+c.ways]
	for w, s := range set {
		if s.tag() == l && s.state() != Invalid {
			return set, w
		}
	}
	return set, -1
}

// touch moves way w of set to the most-recently-used position.
func touch(set []secLine, w int) {
	if w == 0 {
		return
	}
	e := set[w]
	copy(set[1:w+1], set[:w])
	set[0] = e
}

// State returns the state of line l (Invalid if absent), updating LRU.
func (c *secondaryCache) State(l mem.Line) LineState {
	set, w := c.find(l)
	if w < 0 {
		return Invalid
	}
	st := set[w].state()
	touch(set, w)
	return st
}

// Peek is State without the LRU update — the invariant checker's probe.
// A checker lookup must not change replacement order (zero perturbation).
func (c *secondaryCache) Peek(l mem.Line) LineState {
	set, w := c.find(l)
	if w < 0 {
		return Invalid
	}
	return set[w].state()
}

// Victim returns the line that installing l would evict (the LRU way), if
// the set is full of other valid lines.
func (c *secondaryCache) Victim(l mem.Line) (mem.Line, LineState, bool) {
	set, w := c.find(l)
	if w >= 0 {
		return 0, Invalid, false // l already present: no eviction
	}
	for _, s := range set {
		if s.state() == Invalid {
			return 0, Invalid, false // a free way exists
		}
	}
	lru := set[len(set)-1]
	return lru.tag(), lru.state(), true
}

// Install fills line l in the given state, evicting the LRU way if the
// set is full. Callers must handle the victim (writeback for dirty
// victims) before installing.
func (c *secondaryCache) Install(l mem.Line, st LineState) {
	set, w := c.find(l)
	if w < 0 {
		// Prefer a free way; otherwise replace the LRU way.
		w = len(set) - 1
		for i, s := range set {
			if s.state() == Invalid {
				w = i
				break
			}
		}
	}
	set[w] = packLine(l, st)
	touch(set, w)
}

// SetState changes the state of line l, which must be present.
func (c *secondaryCache) SetState(l mem.Line, st LineState) {
	set, w := c.find(l)
	if w < 0 {
		panic("memsys: SetState on absent line")
	}
	set[w] = packLine(l, st)
}

// Invalidate removes line l if present.
func (c *secondaryCache) Invalidate(l mem.Line) {
	set, w := c.find(l)
	if w >= 0 {
		set[w] = packLine(l, Invalid)
	}
}

// forEachValid calls fn for every valid line (used by invariant checks).
func (c *secondaryCache) forEachValid(fn func(mem.Line, LineState)) {
	for _, s := range c.lines {
		if s.state() != Invalid {
			fn(s.tag(), s.state())
		}
	}
}
