// Package dirset implements the directory's sharer sets: the per-line
// record of which nodes may hold a cached copy. The classic
// full-bit-vector directory stores one presence bit per node and is
// exact, but its per-entry storage grows linearly with the machine. The
// scalable organizations trade precision for bounded storage:
//
//   - full-map: one bit per node. Exact.
//   - limited-pointer (Dir_i B): i node pointers; when an (i+1)-th
//     sharer arrives the entry overflows to broadcast mode and a later
//     write must invalidate every node (Agarwal et al.'s Dir_i B).
//   - coarse-vector: one bit per group of k consecutive nodes; a write
//     invalidates every node of every marked group.
//
// A sharer set is a one-word value (Set) stored inside its directory
// entry. The organization and its parameters (Layout) are held once per
// directory, and every set is read and written through them. Each
// organization keeps a bit vector: full-map and limited-pointer one bit
// per node (a limited-pointer set records its pointers as a node mask),
// coarse-vector one bit per group. A vector of at most 64 bits is the
// Set's word itself, so on machines of 64 nodes or fewer no organization
// allocates. A wider vector lives in a word store the Layout owns: the
// first time a node is added to the set, the store grows by the
// vector's words and the Set records where they start.
//
// Every organization obeys the superset contract: the represented set
// always contains every true sharer, and may contain more (the imprecise
// organizations, and — in every organization — nodes that silently
// evicted their copy). Invalidations sent to non-sharers are spurious
// but harmless: they are acknowledged without effect. Next walks the set
// in ascending node order, which the deterministic event kernel relies
// on (the simdet analyzer flags unsorted sharer iteration).
package dirset

import (
	"encoding/json"
	"fmt"
	"math/bits"
	"strings"
)

// Org selects a directory organization.
type Org int

const (
	// FullMap is the exact full-bit-vector directory (the paper's DASH
	// protocol, generalized past 64 nodes).
	FullMap Org = iota
	// LimitedPtr is the limited-pointer Dir_i B organization: i exact
	// pointers, overflow switches the entry to broadcast.
	LimitedPtr
	// CoarseVector tracks sharers at the granularity of k-node groups.
	CoarseVector

	numOrgs
)

var orgNames = [numOrgs]string{"full-map", "limited-pointer", "coarse-vector"}

// OrgNames lists the valid -dir-org flag values in declaration order.
var OrgNames = []string{"full-map", "limited-pointer", "coarse-vector"}

// String returns the organization's flag spelling.
func (o Org) String() string {
	if o < 0 || o >= numOrgs {
		return fmt.Sprintf("org(%d)", int(o))
	}
	return orgNames[o]
}

// Valid reports whether o is a known organization.
func (o Org) Valid() bool { return o >= 0 && o < numOrgs }

// ParseOrg converts a -dir-org flag value.
func ParseOrg(s string) (Org, error) {
	for o := Org(0); o < numOrgs; o++ {
		if s == orgNames[o] {
			return o, nil
		}
	}
	return 0, fmt.Errorf("dirset: unknown directory organization %q (valid: %s)",
		s, strings.Join(OrgNames, ", "))
}

// UnmarshalJSON decodes the integer encoding Marshal emits, which the
// runner's cache entries contain, and rejects a value outside the
// enumeration: a cache file read from disk must not yield an unknown
// organization.
func (o *Org) UnmarshalJSON(b []byte) error {
	var v int
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	if !Org(v).Valid() {
		return fmt.Errorf("dirset: Org(%d) out of range (valid: %s)", v, strings.Join(OrgNames, ", "))
	}
	*o = Org(v)
	return nil
}

// Layout is a directory organization with its parameters, for a machine
// of a given size. A directory holds one Layout and reads and writes all
// of its entries' sets through it.
type Layout struct {
	org   Org
	procs int
	ptrs  int // limited-pointer: the number of pointers i
	k     int // coarse-vector: nodes per group
	width int // bits in a set's vector: procs, or the number of groups

	// store holds the vectors of every set wider than 64 bits, each in
	// (width+63)/64 consecutive words; nil when the layout is at most 64
	// bits wide. Copies of a Layout share it, and it only grows, so a set
	// keeps its offset for its life.
	store *[]uint64
}

// NewLayout returns the layout of org on a machine of procs nodes.
// pointers and coarseness are the LimitedPtr i and CoarseVector k
// parameters; the organizations that do not use them ignore them.
// Invalid parameters (validated upstream by config.Validate) are clamped
// to 1.
func NewLayout(org Org, procs, pointers, coarseness int) Layout {
	l := Layout{org: org, procs: procs, ptrs: max(pointers, 1), k: max(coarseness, 1), width: procs}
	if org == CoarseVector {
		l.width = (procs + l.k - 1) / l.k
	}
	if l.width > 64 {
		l.store = new([]uint64)
	}
	return l
}

// Bits is the organization's per-entry storage cost in bits (a constant
// per configuration; the directory-footprint metric): P for full-map,
// i pointers of ceil(log2 P) bits plus the broadcast bit for
// limited-pointer, and ceil(P/k) for coarse-vector.
func (l Layout) Bits() int {
	switch l.org {
	case LimitedPtr:
		return l.ptrs*ceilLog2(l.procs) + 1
	case CoarseVector:
		return l.width
	}
	return l.procs
}

// Set is one line's sharer set, one word. When the layout is at most 64
// bits wide the word is the vector; when it is wider the word is 0 until
// the set's first Add, and then 1 plus the offset of the set's words in
// the layout's store. The zero Set is empty. A Set must be used with a
// single Layout; copies of a Set wider than 64 bits share their words.
type Set struct {
	w [1]uint64
}

// words returns s's bit vector: the set's own word, or the wide vector
// in the store (nil before its first Add).
func (l Layout) words(s *Set) []uint64 {
	if l.store == nil {
		return s.w[:]
	}
	if s.w[0] == 0 {
		return nil
	}
	off := s.w[0] - 1
	return (*l.store)[off : off+uint64(l.width+63)/64]
}

// Add includes node id in s. It returns true when this call pushed a
// limited-pointer set into broadcast mode (the overflow event the
// directory counts); every other call returns false.
func (l Layout) Add(s *Set, id int) (overflowed bool) {
	if l.store != nil && s.w[0] == 0 {
		s.w[0] = uint64(len(*l.store)) + 1
		// One word at a time: append(store, make(...)...) would allocate
		// its temporary on every call under the race detector.
		for range (l.width + 63) / 64 {
			*l.store = append(*l.store, 0)
		}
	}
	ws := l.words(s)
	b := id
	switch l.org {
	case LimitedPtr:
		// A node already in the mask takes no pointer. A broadcast set
		// holds every node's bit, so it never takes one.
		if has(ws, id) {
			return false
		}
		if count(ws) == l.ptrs {
			// Overflow: drop the pointers, remember everyone.
			fill(ws, l.procs)
			return true
		}
	case CoarseVector:
		b = id / l.k
	}
	ws[b>>6] |= 1 << uint(b&63)
	return false
}

// Remove excises node id where the representation allows it, and
// otherwise leaves s unchanged: an overflowed limited-pointer set and a
// coarse group of k > 1 nodes keep the node, so that no other potential
// sharer is dropped.
func (l Layout) Remove(s *Set, id int) {
	ws := l.words(s)
	switch l.org {
	case LimitedPtr:
		if count(ws) > l.ptrs {
			return // broadcast mode has no per-node information
		}
	case CoarseVector:
		if l.k > 1 {
			return
		}
	}
	if id>>6 < len(ws) {
		ws[id>>6] &^= 1 << uint(id&63)
	}
}

// Clear empties s (and resets any overflow state).
func (l Layout) Clear(s *Set) { clear(l.words(s)) }

// View returns the read-only view of s.
func (l Layout) View(s Set) View { return View{l: l, s: s} }

// View is the read-only side of a sharer set: what the invariant checker
// (and any other observer) may see. It is a plain value, so handing one
// out allocates nothing. The zero View is the empty set of a line with
// no directory entry. Contains and Next report the represented superset,
// not ground truth — for an imprecise organization a node can be "in"
// the set without holding a copy.
type View struct {
	l Layout
	s Set
}

// Contains reports whether the representation includes node id.
func (v View) Contains(id int) bool {
	if v.l.org == CoarseVector {
		id /= v.l.k
	}
	return has(v.l.words(&v.s), id)
}

// Len is the number of nodes the representation includes.
func (v View) Len() int {
	ws := v.l.words(&v.s)
	if v.l.org != CoarseVector {
		return count(ws)
	}
	n := 0
	for g := nextBit(ws, 0); g >= 0; g = nextBit(ws, g+1) {
		n += min(v.l.k, v.l.procs-g*v.l.k)
	}
	return n
}

// Next returns the lowest included node >= id, or -1 if there is none.
// The walk for id := v.Next(0); id >= 0; id = v.Next(id+1) visits every
// included node in ascending order without allocating.
func (v View) Next(id int) int {
	ws := v.l.words(&v.s)
	if v.l.org != CoarseVector {
		return nextBit(ws, id)
	}
	// A marked group includes all its members. Groups are marked only
	// through valid ids, so only ids past the last node (in a short final
	// group) need the cut.
	if id >= v.l.procs {
		return -1
	}
	g := nextBit(ws, id/v.l.k)
	if g < 0 {
		return -1
	}
	return max(id, g*v.l.k)
}

// Precise reports whether the set currently equals the exact set of
// nodes that were added (and not removed): full-map always,
// limited-pointer until it overflows, coarse-vector only at k = 1.
func (v View) Precise() bool {
	switch v.l.org {
	case LimitedPtr:
		return !v.Overflowed()
	case CoarseVector:
		return v.l.k == 1
	}
	return true
}

// Overflowed reports whether a limited-pointer set has fallen back to
// broadcast mode: it holds more nodes than it has pointers.
func (v View) Overflowed() bool {
	return v.l.org == LimitedPtr && count(v.l.words(&v.s)) > v.l.ptrs
}

// has reports whether bit i of the vector ws is set.
func has(ws []uint64, i int) bool {
	return i>>6 < len(ws) && ws[i>>6]&(1<<uint(i&63)) != 0
}

// count returns the number of set bits in ws.
func count(ws []uint64) int {
	n := 0
	for _, w := range ws {
		n += bits.OnesCount64(w)
	}
	return n
}

// fill sets bits 0..n-1 of ws, which is exactly ceil(n/64) words long.
func fill(ws []uint64, n int) {
	for i := range ws {
		ws[i] = ^uint64(0)
	}
	if r := n & 63; r != 0 {
		ws[len(ws)-1] = 1<<uint(r) - 1
	}
}

// nextBit returns the index of the lowest set bit at or above i in the
// bit vector words, or -1 if there is none.
func nextBit(words []uint64, i int) int {
	wi := i >> 6
	if wi >= len(words) {
		return -1
	}
	w := words[wi] &^ (1<<uint(i&63) - 1)
	for w == 0 {
		wi++
		if wi == len(words) {
			return -1
		}
		w = words[wi]
	}
	return wi<<6 + bits.TrailingZeros64(w)
}

// ceilLog2 returns ceil(log2 n) for n >= 1 (0 for n <= 1): the width of
// one node pointer.
func ceilLog2(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}
