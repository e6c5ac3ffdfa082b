// Package dirset implements the directory's sharer-set representations:
// the per-line record of which nodes may hold a cached copy. The classic
// full-bit-vector directory stores one presence bit per node and is
// exact, but its per-entry storage grows linearly with the machine and
// hard-caps a uint64-based implementation at 64 nodes. The scalable
// organizations trade precision for bounded storage:
//
//   - full-map: one bit per node, chunked into 64-bit words, unbounded
//     width. Exact.
//   - limited-pointer (Dir_i B): i node pointers; when an (i+1)-th
//     sharer arrives the entry overflows to broadcast mode and a later
//     write must invalidate every node (Agarwal et al.'s Dir_i B).
//   - coarse-vector: one bit per group of k consecutive nodes; a write
//     invalidates every node of every marked group.
//
// Every implementation obeys the superset contract: the represented set
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

// UnmarshalJSON accepts either the integer encoding (what Marshal
// emits, and what the runner's cache entries contain) or an
// organization name string, so untrusted API documents can say
// "DirOrg": "limited-pointer".
func (o *Org) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		v, err := ParseOrg(s)
		if err != nil {
			return err
		}
		*o = v
		return nil
	}
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

// View is the read-only side of a sharer set: what the invariant checker
// (and any other observer) may see. Contains and Next report the
// represented superset, not ground truth — for an imprecise organization
// a node can be "in" the set without holding a copy.
type View interface {
	// Contains reports whether the representation includes node id.
	Contains(id int) bool
	// Len is the number of nodes the representation includes.
	Len() int
	// Next returns the lowest included node >= id, or -1 if there is
	// none. The walk for id := v.Next(0); id >= 0; id = v.Next(id+1)
	// visits every included node in ascending order without allocating.
	Next(id int) int
	// Precise reports whether the set currently equals the exact set of
	// nodes that were added (and not removed): full-map always,
	// limited-pointer until it overflows, coarse-vector only at k = 1.
	Precise() bool
	// Overflowed reports whether a limited-pointer set has fallen back
	// to broadcast mode.
	Overflowed() bool
	// Bits is the organization's per-entry storage cost in bits (a
	// constant per configuration; the directory-footprint metric).
	Bits() int
}

// Set is a mutable sharer set. Remove is best-effort and must preserve
// the superset contract: an implementation that cannot excise one node
// (an overflowed limited-pointer set, a shared coarse group) leaves the
// set unchanged rather than dropping other potential sharers.
type Set interface {
	View
	// Add includes node id. It returns true when this call pushed a
	// limited-pointer set into broadcast mode (the overflow event the
	// directory counts); every other call returns false.
	Add(id int) (overflowed bool)
	// Remove excises node id where the representation allows it.
	Remove(id int)
	// Clear empties the set (and resets any overflow state).
	Clear()
}

// New builds an empty sharer set for a machine of procs nodes. pointers
// and coarseness are the LimitedPtr i and CoarseVector k parameters;
// they are ignored by the organizations that do not use them. Invalid
// parameters (validated upstream by config.Validate) are clamped to 1.
func New(org Org, procs, pointers, coarseness int) Set {
	switch org {
	case LimitedPtr:
		if pointers < 1 {
			pointers = 1
		}
		return &ptrSet{max: pointers, procs: procs}
	case CoarseVector:
		if coarseness < 1 {
			coarseness = 1
		}
		groups := (procs + coarseness - 1) / coarseness
		return &coarseSet{
			words: make([]uint64, (groups+63)/64),
			k:     coarseness,
			procs: procs,
		}
	default:
		return &bitSet{words: make([]uint64, (procs+63)/64), procs: procs}
	}
}

// None is the empty, immutable view returned for lines with no
// directory entry.
var None View = noneView{}

type noneView struct{}

func (noneView) Contains(int) bool { return false }
func (noneView) Len() int          { return 0 }
func (noneView) Next(int) int      { return -1 }
func (noneView) Precise() bool     { return true }
func (noneView) Overflowed() bool  { return false }
func (noneView) Bits() int         { return 0 }

// bitSet is the exact full-map organization: one presence bit per node,
// in 64-bit chunks.
type bitSet struct {
	words []uint64
	procs int
}

func (s *bitSet) Add(id int) bool {
	s.words[id>>6] |= 1 << uint(id&63)
	return false
}

func (s *bitSet) Remove(id int) { s.words[id>>6] &^= 1 << uint(id&63) }

func (s *bitSet) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

func (s *bitSet) Contains(id int) bool { return s.words[id>>6]&(1<<uint(id&63)) != 0 }

func (s *bitSet) Len() int {
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

func (s *bitSet) Next(id int) int { return nextBit(s.words, id) }

func (s *bitSet) Precise() bool    { return true }
func (s *bitSet) Overflowed() bool { return false }
func (s *bitSet) Bits() int        { return s.procs }

// ptrSet is the limited-pointer Dir_i B organization: up to max exact
// node pointers (kept sorted ascending for deterministic iteration);
// adding one more switches the entry to broadcast mode, where every
// node is a potential sharer until the set is cleared.
type ptrSet struct {
	ptrs  []int
	max   int
	procs int
	bcast bool
}

func (s *ptrSet) Add(id int) bool {
	if s.bcast {
		return false
	}
	i := 0
	for i < len(s.ptrs) && s.ptrs[i] < id {
		i++
	}
	if i < len(s.ptrs) && s.ptrs[i] == id {
		return false
	}
	if len(s.ptrs) == s.max {
		// Overflow: drop the pointers, remember everyone.
		s.ptrs = s.ptrs[:0]
		s.bcast = true
		return true
	}
	s.ptrs = append(s.ptrs, 0)
	copy(s.ptrs[i+1:], s.ptrs[i:])
	s.ptrs[i] = id
	return false
}

func (s *ptrSet) Remove(id int) {
	if s.bcast {
		// Broadcast mode has no per-node information to excise; the
		// superset stays intact.
		return
	}
	for i, p := range s.ptrs {
		if p == id {
			s.ptrs = append(s.ptrs[:i], s.ptrs[i+1:]...)
			return
		}
	}
}

func (s *ptrSet) Clear() {
	s.ptrs = s.ptrs[:0]
	s.bcast = false
}

func (s *ptrSet) Contains(id int) bool {
	if s.bcast {
		return true
	}
	for _, p := range s.ptrs {
		if p == id {
			return true
		}
	}
	return false
}

func (s *ptrSet) Len() int {
	if s.bcast {
		return s.procs
	}
	return len(s.ptrs)
}

func (s *ptrSet) Next(id int) int {
	if s.bcast {
		if id < s.procs {
			return id
		}
		return -1
	}
	for _, p := range s.ptrs {
		if p >= id {
			return p
		}
	}
	return -1
}

func (s *ptrSet) Precise() bool    { return !s.bcast }
func (s *ptrSet) Overflowed() bool { return s.bcast }

// Bits is i pointers of ceil(log2 procs) bits each plus the broadcast
// bit.
func (s *ptrSet) Bits() int { return s.max*ceilLog2(s.procs) + 1 }

// coarseSet is the coarse-vector organization: one bit per group of k
// consecutive nodes. Adding any group member marks the group; a marked
// group includes every member, so precision is lost by construction for
// k > 1 (but storage shrinks k-fold and there is no overflow mode).
type coarseSet struct {
	words []uint64
	k     int
	procs int
}

func (s *coarseSet) Add(id int) bool {
	g := id / s.k
	s.words[g>>6] |= 1 << uint(g&63)
	return false
}

func (s *coarseSet) Remove(id int) {
	if s.k == 1 {
		// Degenerate exact case: a group is one node.
		g := id
		s.words[g>>6] &^= 1 << uint(g&63)
	}
	// k > 1: clearing the group would drop the other members' sharing
	// information; keep the superset.
}

func (s *coarseSet) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

func (s *coarseSet) Contains(id int) bool {
	g := id / s.k
	return s.words[g>>6]&(1<<uint(g&63)) != 0
}

func (s *coarseSet) Len() int {
	n := 0
	for id := s.Next(0); id >= 0; id = s.Next(id + 1) {
		n++
	}
	return n
}

// Next is id itself when id's group is marked, else the first member of
// the next marked group. Groups are marked only through valid ids, so
// only ids past the last node (in a short final group) need the cut.
func (s *coarseSet) Next(id int) int {
	if id >= s.procs {
		return -1
	}
	g := nextBit(s.words, id/s.k)
	if g < 0 {
		return -1
	}
	return max(id, g*s.k)
}

func (s *coarseSet) Precise() bool    { return s.k == 1 }
func (s *coarseSet) Overflowed() bool { return false }
func (s *coarseSet) Bits() int        { return (s.procs + s.k - 1) / s.k }

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
