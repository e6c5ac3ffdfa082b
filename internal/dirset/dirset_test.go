package dirset

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// set pairs a Set with its layout, as a directory entry and its
// directory do.
type set struct {
	l Layout
	s Set
}

func newSet(org Org, procs, pointers, coarseness int) *set {
	return &set{l: NewLayout(org, procs, pointers, coarseness)}
}

func (t *set) Add(id int) bool { return t.l.Add(&t.s, id) }
func (t *set) Remove(id int)   { t.l.Remove(&t.s, id) }
func (t *set) Clear()          { t.l.Clear(&t.s) }
func (t *set) v() View         { return t.l.View(t.s) }

func collect(v View) []int {
	ids := []int{}
	for id := v.Next(0); id >= 0; id = v.Next(id + 1) {
		ids = append(ids, id)
	}
	return ids
}

func TestParseOrg(t *testing.T) {
	for _, name := range OrgNames {
		o, err := ParseOrg(name)
		if err != nil {
			t.Fatalf("ParseOrg(%q): %v", name, err)
		}
		if o.String() != name {
			t.Fatalf("ParseOrg(%q).String() = %q", name, o.String())
		}
		if !o.Valid() {
			t.Fatalf("ParseOrg(%q) not Valid", name)
		}
	}
	if _, err := ParseOrg("sparse"); err == nil {
		t.Fatal("ParseOrg(sparse): want error")
	} else if got := err.Error(); got != `dirset: unknown directory organization "sparse" (valid: full-map, limited-pointer, coarse-vector)` {
		t.Fatalf("unexpected error text: %s", got)
	}
}

// TestOrgUnmarshalJSON pins the decoding of the organization in a
// cached configuration: the integer encoding decodes, and a value
// outside the enumeration, or a name, is rejected.
func TestOrgUnmarshalJSON(t *testing.T) {
	var c struct{ DirOrg Org }
	if err := json.Unmarshal([]byte(`{"DirOrg": 2}`), &c); err != nil || c.DirOrg != CoarseVector {
		t.Fatalf(`{"DirOrg": 2}: DirOrg=%v, err=%v; want coarse-vector`, c.DirOrg, err)
	}
	for _, raw := range []string{`{"DirOrg": 7}`, `{"DirOrg": -1}`, `{"DirOrg": "limited-pointer"}`} {
		if err := json.Unmarshal([]byte(raw), &c); err == nil {
			t.Errorf("%s accepted", raw)
		}
	}
}

func TestFullMapRoundTrip(t *testing.T) {
	// 200 procs exercises multi-word chunking past the old 64-bit cap.
	s := newSet(FullMap, 200, 0, 0)
	for _, id := range []int{5, 0, 199, 64, 63, 128} {
		if over := s.Add(id); over {
			t.Fatalf("full-map Add(%d) reported overflow", id)
		}
	}
	want := []int{0, 5, 63, 64, 128, 199}
	if got := collect(s.v()); !reflect.DeepEqual(got, want) {
		t.Fatalf("walk = %v, want %v", got, want)
	}
	if s.v().Len() != 6 || !s.v().Contains(64) || s.v().Contains(1) {
		t.Fatalf("Len/Contains wrong: len=%d", s.v().Len())
	}
	if !s.v().Precise() || s.v().Overflowed() {
		t.Fatal("full-map must stay precise and never overflow")
	}
	s.Remove(64)
	if s.v().Contains(64) || s.v().Len() != 5 {
		t.Fatal("Remove(64) did not excise the node")
	}
	s.Clear()
	if s.v().Len() != 0 || len(collect(s.v())) != 0 {
		t.Fatal("Clear left residue")
	}
	if s.l.Bits() != 200 {
		t.Fatalf("full-map Bits = %d, want 200", s.l.Bits())
	}
}

func TestLimitedPtrOverflow(t *testing.T) {
	s := newSet(LimitedPtr, 256, 3, 0)
	// Insert out of order: iteration must still be ascending.
	for _, id := range []int{200, 7, 42} {
		if s.Add(id) {
			t.Fatalf("Add(%d) overflowed below capacity", id)
		}
	}
	if got, want := collect(s.v()), []int{7, 42, 200}; !reflect.DeepEqual(got, want) {
		t.Fatalf("walk = %v, want %v", got, want)
	}
	if !s.v().Precise() || s.v().Overflowed() || s.v().Len() != 3 {
		t.Fatal("pre-overflow state wrong")
	}
	// Re-adding an existing sharer is not an overflow.
	if s.Add(42) {
		t.Fatal("duplicate Add overflowed")
	}
	// The 4th distinct sharer trips broadcast mode — exactly once.
	if !s.Add(9) {
		t.Fatal("4th Add did not report overflow")
	}
	if s.Add(10) {
		t.Fatal("Add after overflow re-reported overflow")
	}
	if s.v().Precise() || !s.v().Overflowed() {
		t.Fatal("post-overflow precision flags wrong")
	}
	if s.v().Len() != 256 || !s.v().Contains(0) || !s.v().Contains(255) {
		t.Fatal("broadcast mode must include every node")
	}
	ids := collect(s.v())
	if len(ids) != 256 || !sort.IntsAreSorted(ids) {
		t.Fatalf("broadcast walk: %d ids, sorted=%v", len(ids), sort.IntsAreSorted(ids))
	}
	// Remove in broadcast mode keeps the superset.
	s.Remove(5)
	if !s.v().Contains(5) {
		t.Fatal("Remove in broadcast mode dropped a potential sharer")
	}
	// Clear resets broadcast; the set is usable and precise again.
	s.Clear()
	if s.v().Len() != 0 || s.v().Overflowed() || !s.v().Precise() {
		t.Fatal("Clear did not reset broadcast state")
	}
	s.Add(1)
	if got, want := collect(s.v()), []int{1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("post-Clear walk = %v, want %v", got, want)
	}
	// 3 pointers × ceil(log2 256)=8 bits + broadcast bit.
	if s.l.Bits() != 3*8+1 {
		t.Fatalf("Bits = %d, want 25", s.l.Bits())
	}
}

func TestLimitedPtrRemove(t *testing.T) {
	s := newSet(LimitedPtr, 64, 2, 0)
	s.Add(10)
	s.Add(20)
	s.Remove(10)
	if s.v().Contains(10) || s.v().Len() != 1 {
		t.Fatal("Remove below capacity must be exact")
	}
	// Freed slot means the next Add does not overflow.
	if s.Add(30) {
		t.Fatal("Add into freed slot overflowed")
	}
	if got, want := collect(s.v()), []int{20, 30}; !reflect.DeepEqual(got, want) {
		t.Fatalf("walk = %v, want %v", got, want)
	}
}

func TestCoarseVectorRoundTrip(t *testing.T) {
	s := newSet(CoarseVector, 10, 0, 4)
	// Adding node 5 marks group 1 = nodes 4..7.
	s.Add(5)
	if got, want := collect(s.v()), []int{4, 5, 6, 7}; !reflect.DeepEqual(got, want) {
		t.Fatalf("walk = %v, want %v", got, want)
	}
	if !s.v().Contains(4) || s.v().Contains(3) || s.v().Len() != 4 {
		t.Fatal("group membership wrong")
	}
	if s.v().Precise() {
		t.Fatal("k=4 coarse vector must not claim precision")
	}
	// The last group is clamped to procs: node 9 marks group 2 = {8, 9}.
	s.Add(9)
	if got, want := collect(s.v()), []int{4, 5, 6, 7, 8, 9}; !reflect.DeepEqual(got, want) {
		t.Fatalf("clamped walk = %v, want %v", got, want)
	}
	// Remove at k>1 keeps the superset (group may have other sharers).
	s.Remove(5)
	if !s.v().Contains(5) {
		t.Fatal("coarse Remove dropped a group with potential sharers")
	}
	if s.v().Overflowed() {
		t.Fatal("coarse vector has no overflow mode")
	}
	s.Clear()
	if s.v().Len() != 0 {
		t.Fatal("Clear left residue")
	}
	// ceil(10/4) = 3 group bits.
	if s.l.Bits() != 3 {
		t.Fatalf("Bits = %d, want 3", s.l.Bits())
	}
}

func TestCoarseVectorK1IsExact(t *testing.T) {
	s := newSet(CoarseVector, 8, 0, 1)
	s.Add(3)
	s.Add(6)
	if !s.v().Precise() {
		t.Fatal("k=1 coarse vector is exact")
	}
	s.Remove(3)
	if s.v().Contains(3) || s.v().Len() != 1 {
		t.Fatal("k=1 Remove must be exact")
	}
}

// TestSupersetContract drives all three organizations through the same
// random-ish add/remove script and asserts the scalable orgs always
// represent a superset of the exact set.
func TestSupersetContract(t *testing.T) {
	const procs = 96
	exact := newSet(FullMap, procs, 0, 0)
	orgs := map[string]*set{
		"limited-pointer": newSet(LimitedPtr, procs, 4, 0),
		"coarse-vector":   newSet(CoarseVector, procs, 0, 8),
	}
	script := []struct {
		add bool
		id  int
	}{
		{true, 3}, {true, 77}, {true, 12}, {false, 3}, {true, 64},
		{true, 65}, {true, 30}, {true, 95}, {false, 64}, {true, 8},
	}
	for _, step := range script {
		if step.add {
			exact.Add(step.id)
			for _, s := range orgs {
				s.Add(step.id)
			}
		} else {
			exact.Remove(step.id)
			for _, s := range orgs {
				s.Remove(step.id)
			}
		}
		for _, id := range collect(exact.v()) {
			for name, s := range orgs {
				if !s.v().Contains(id) {
					t.Fatalf("%s dropped true sharer %d", name, id)
				}
			}
		}
	}
}

// TestNextDeterminism: two identically-built sets of every org must
// iterate identically (the event kernel schedules invalidations in
// Next order), and Next from any id must agree with the full walk.
func TestNextDeterminism(t *testing.T) {
	build := func(org Org) *set {
		s := newSet(org, 128, 3, 4)
		for _, id := range []int{90, 2, 45, 44, 127, 3} {
			s.Add(id)
		}
		return s
	}
	for _, org := range []Org{FullMap, LimitedPtr, CoarseVector} {
		a, b := collect(build(org).v()), collect(build(org).v())
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%v: nondeterministic iteration: %v vs %v", org, a, b)
		}
		if !sort.IntsAreSorted(a) {
			t.Fatalf("%v: iteration not ascending: %v", org, a)
		}
		s := build(org)
		for id := 0; id <= 128; id++ {
			want := -1
			if i := sort.SearchInts(a, id); i < len(a) {
				want = a[i]
			}
			if got := s.v().Next(id); got != want {
				t.Fatalf("%v: Next(%d) = %d, want %d", org, id, got, want)
			}
		}
	}
}

// TestNoneView: the zero View, which a line with no directory entry
// reads as, is the precise empty set.
func TestNoneView(t *testing.T) {
	var none View
	if none.Len() != 0 || none.Contains(0) || none.Overflowed() || !none.Precise() {
		t.Fatal("the zero View must be the precise empty view")
	}
	if id := none.Next(0); id != -1 {
		t.Fatalf("View{}.Next(0) = %d, want -1", id)
	}
}

func TestCeilLog2(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 64: 6, 65: 7, 1024: 10}
	for n, want := range cases {
		if got := ceilLog2(n); got != want {
			t.Errorf("ceilLog2(%d) = %d, want %d", n, got, want)
		}
	}
}

// refSet is the reference model the sharer sets are checked against,
// written from the organizations' definitions: one bool per node for
// the represented set, plus the limited-pointer broadcast flag.
type refSet struct {
	org            Org
	procs, ptrs, k int
	in             []bool
	bcast          bool
	bits           int
}

func newRef(org Org, procs, ptrs, k int) *refSet {
	r := &refSet{org: org, procs: procs, ptrs: ptrs, k: k, in: make([]bool, procs)}
	switch org {
	case FullMap:
		r.bits = procs
	case LimitedPtr:
		w := 0
		for 1<<w < procs {
			w++
		}
		r.bits = ptrs*w + 1
	case CoarseVector:
		r.bits = (procs + k - 1) / k
	}
	return r
}

func (r *refSet) add(id int) (overflowed bool) {
	switch r.org {
	case LimitedPtr:
		if r.bcast || r.in[id] {
			return false
		}
		if len(r.members()) == r.ptrs {
			clear(r.in)
			r.bcast = true
			return true
		}
		r.in[id] = true
	case CoarseVector:
		for x := id / r.k * r.k; x < min(r.procs, (id/r.k+1)*r.k); x++ {
			r.in[x] = true
		}
	default:
		r.in[id] = true
	}
	return false
}

func (r *refSet) remove(id int) {
	if r.bcast || (r.org == CoarseVector && r.k > 1) {
		return
	}
	r.in[id] = false
}

func (r *refSet) clearAll() {
	clear(r.in)
	r.bcast = false
}

func (r *refSet) members() []int {
	ids := []int{}
	for id, in := range r.in {
		if in || r.bcast {
			ids = append(ids, id)
		}
	}
	return ids
}

// TestAgainstReference drives every organization through seeded random
// Add/Remove/Clear sequences next to the reference model and compares
// everything a View reports after each step. The machine sizes straddle
// the 64-bit inline word (63, 64, 65) and go well past it.
func TestAgainstReference(t *testing.T) {
	type cfg struct {
		org     Org
		ptrs, k int
		procs   int
	}
	var cfgs []cfg
	for _, procs := range []int{1, 2, 63, 64, 65, 256, 1024} {
		cfgs = append(cfgs, cfg{org: FullMap, procs: procs})
		for _, ptrs := range []int{1, 4, procs, procs + 3} {
			cfgs = append(cfgs, cfg{org: LimitedPtr, ptrs: ptrs, procs: procs})
		}
		for _, k := range []int{1, 3, 4, 64} {
			cfgs = append(cfgs, cfg{org: CoarseVector, k: k, procs: procs})
		}
	}
	for i, c := range cfgs {
		l := NewLayout(c.org, c.procs, c.ptrs, c.k)
		var s Set
		ref := newRef(c.org, c.procs, max(c.ptrs, 1), max(c.k, 1))
		rng := rand.New(rand.NewSource(int64(i + 1)))
		name := fmt.Sprintf("%v/procs=%d/ptrs=%d/k=%d", c.org, c.procs, c.ptrs, c.k)
		// Half the ids come from the word edges and the machine's ends, so
		// small sets on wide machines still collide and overflow.
		edges := []int{0, 1, 62, 63, 64, 65, c.procs - 1}
		pick := func() int {
			if id := edges[rng.Intn(len(edges))]; rng.Intn(2) == 0 && id < c.procs {
				return id
			}
			return rng.Intn(c.procs)
		}
		for step := 0; step < 400; step++ {
			op, id := rng.Intn(10), pick()
			switch {
			case op < 6:
				if got, want := l.Add(&s, id), ref.add(id); got != want {
					t.Fatalf("%s step %d: Add(%d) overflowed = %v, want %v", name, step, id, got, want)
				}
			case op < 9:
				l.Remove(&s, id)
				ref.remove(id)
			default:
				l.Clear(&s)
				ref.clearAll()
			}
			v, want := l.View(s), ref.members()
			if got := collect(v); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s step %d: walk = %v, want %v", name, step, got, want)
			}
			for x := 0; x < c.procs; x++ {
				if v.Contains(x) != (ref.in[x] || ref.bcast) {
					t.Fatalf("%s step %d: Contains(%d) = %v", name, step, x, v.Contains(x))
				}
			}
			if from := rng.Intn(c.procs + 1); v.Next(from) != firstAtOrAbove(want, from) {
				t.Fatalf("%s step %d: Next(%d) = %d, want %d", name, step, from, v.Next(from), firstAtOrAbove(want, from))
			}
			precise := c.org == FullMap || (c.org == LimitedPtr && !ref.bcast) || (c.org == CoarseVector && c.k == 1)
			if v.Len() != len(want) || v.Precise() != precise || v.Overflowed() != ref.bcast || l.Bits() != ref.bits {
				t.Fatalf("%s step %d: Len %d Precise %v Overflowed %v Bits %d, want %d %v %v %d", name, step,
					v.Len(), v.Precise(), v.Overflowed(), l.Bits(), len(want), precise, ref.bcast, ref.bits)
			}
		}
	}
}

// firstAtOrAbove returns the first of the ascending ids that is >= id,
// or -1.
func firstAtOrAbove(ids []int, id int) int {
	if i := sort.SearchInts(ids, id); i < len(ids) {
		return ids[i]
	}
	return -1
}

// TestAllocations: a set of at most 64 bits never allocates, and a wider
// one allocates its word slice once, on its first Add.
func TestAllocations(t *testing.T) {
	for _, c := range []struct {
		org            Org
		procs, ptrs, k int
		first          float64
	}{
		{FullMap, 64, 0, 0, 0},
		{LimitedPtr, 64, 4, 0, 0},
		{CoarseVector, 64, 0, 1, 0},
		{CoarseVector, 1024, 0, 16, 0},
		{FullMap, 65, 0, 0, 1},
		{LimitedPtr, 1024, 4, 0, 1},
		{CoarseVector, 65, 0, 1, 1},
	} {
		l := NewLayout(c.org, c.procs, c.ptrs, c.k)
		var s Set
		first := testing.AllocsPerRun(1, func() { s = Set{}; l.Add(&s, c.procs-1) })
		later := testing.AllocsPerRun(10, func() { l.Add(&s, 0); l.Remove(&s, 0); l.Clear(&s) })
		if first != c.first || later != 0 {
			t.Errorf("%v at %d nodes: first Add allocates %v, later ops %v; want %v and 0",
				c.org, c.procs, first, later, c.first)
		}
	}
}
