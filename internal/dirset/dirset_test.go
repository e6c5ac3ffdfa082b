package dirset

import (
	"reflect"
	"sort"
	"testing"
)

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

func TestFullMapRoundTrip(t *testing.T) {
	// 200 procs exercises multi-word chunking past the old 64-bit cap.
	s := New(FullMap, 200, 0, 0)
	for _, id := range []int{5, 0, 199, 64, 63, 128} {
		if over := s.Add(id); over {
			t.Fatalf("full-map Add(%d) reported overflow", id)
		}
	}
	want := []int{0, 5, 63, 64, 128, 199}
	if got := collect(s); !reflect.DeepEqual(got, want) {
		t.Fatalf("walk = %v, want %v", got, want)
	}
	if s.Len() != 6 || !s.Contains(64) || s.Contains(1) {
		t.Fatalf("Len/Contains wrong: len=%d", s.Len())
	}
	if !s.Precise() || s.Overflowed() {
		t.Fatal("full-map must stay precise and never overflow")
	}
	s.Remove(64)
	if s.Contains(64) || s.Len() != 5 {
		t.Fatal("Remove(64) did not excise the node")
	}
	s.Clear()
	if s.Len() != 0 || len(collect(s)) != 0 {
		t.Fatal("Clear left residue")
	}
	if s.Bits() != 200 {
		t.Fatalf("full-map Bits = %d, want 200", s.Bits())
	}
}

func TestLimitedPtrOverflow(t *testing.T) {
	s := New(LimitedPtr, 256, 3, 0)
	// Insert out of order: iteration must still be ascending.
	for _, id := range []int{200, 7, 42} {
		if s.Add(id) {
			t.Fatalf("Add(%d) overflowed below capacity", id)
		}
	}
	if got, want := collect(s), []int{7, 42, 200}; !reflect.DeepEqual(got, want) {
		t.Fatalf("walk = %v, want %v", got, want)
	}
	if !s.Precise() || s.Overflowed() || s.Len() != 3 {
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
	if s.Precise() || !s.Overflowed() {
		t.Fatal("post-overflow precision flags wrong")
	}
	if s.Len() != 256 || !s.Contains(0) || !s.Contains(255) {
		t.Fatal("broadcast mode must include every node")
	}
	ids := collect(s)
	if len(ids) != 256 || !sort.IntsAreSorted(ids) {
		t.Fatalf("broadcast walk: %d ids, sorted=%v", len(ids), sort.IntsAreSorted(ids))
	}
	// Remove in broadcast mode keeps the superset.
	s.Remove(5)
	if !s.Contains(5) {
		t.Fatal("Remove in broadcast mode dropped a potential sharer")
	}
	// Clear resets broadcast; the set is usable and precise again.
	s.Clear()
	if s.Len() != 0 || s.Overflowed() || !s.Precise() {
		t.Fatal("Clear did not reset broadcast state")
	}
	s.Add(1)
	if got, want := collect(s), []int{1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("post-Clear walk = %v, want %v", got, want)
	}
	// 3 pointers × ceil(log2 256)=8 bits + broadcast bit.
	if s.Bits() != 3*8+1 {
		t.Fatalf("Bits = %d, want 25", s.Bits())
	}
}

func TestLimitedPtrRemove(t *testing.T) {
	s := New(LimitedPtr, 64, 2, 0)
	s.Add(10)
	s.Add(20)
	s.Remove(10)
	if s.Contains(10) || s.Len() != 1 {
		t.Fatal("Remove below capacity must be exact")
	}
	// Freed slot means the next Add does not overflow.
	if s.Add(30) {
		t.Fatal("Add into freed slot overflowed")
	}
	if got, want := collect(s), []int{20, 30}; !reflect.DeepEqual(got, want) {
		t.Fatalf("walk = %v, want %v", got, want)
	}
}

func TestCoarseVectorRoundTrip(t *testing.T) {
	s := New(CoarseVector, 10, 0, 4)
	// Adding node 5 marks group 1 = nodes 4..7.
	s.Add(5)
	if got, want := collect(s), []int{4, 5, 6, 7}; !reflect.DeepEqual(got, want) {
		t.Fatalf("walk = %v, want %v", got, want)
	}
	if !s.Contains(4) || s.Contains(3) || s.Len() != 4 {
		t.Fatal("group membership wrong")
	}
	if s.Precise() {
		t.Fatal("k=4 coarse vector must not claim precision")
	}
	// The last group is clamped to procs: node 9 marks group 2 = {8, 9}.
	s.Add(9)
	if got, want := collect(s), []int{4, 5, 6, 7, 8, 9}; !reflect.DeepEqual(got, want) {
		t.Fatalf("clamped walk = %v, want %v", got, want)
	}
	// Remove at k>1 keeps the superset (group may have other sharers).
	s.Remove(5)
	if !s.Contains(5) {
		t.Fatal("coarse Remove dropped a group with potential sharers")
	}
	if s.Overflowed() {
		t.Fatal("coarse vector has no overflow mode")
	}
	s.Clear()
	if s.Len() != 0 {
		t.Fatal("Clear left residue")
	}
	// ceil(10/4) = 3 group bits.
	if s.Bits() != 3 {
		t.Fatalf("Bits = %d, want 3", s.Bits())
	}
}

func TestCoarseVectorK1IsExact(t *testing.T) {
	s := New(CoarseVector, 8, 0, 1)
	s.Add(3)
	s.Add(6)
	if !s.Precise() {
		t.Fatal("k=1 coarse vector is exact")
	}
	s.Remove(3)
	if s.Contains(3) || s.Len() != 1 {
		t.Fatal("k=1 Remove must be exact")
	}
}

// TestSupersetContract drives all three organizations through the same
// random-ish add/remove script and asserts the scalable orgs always
// represent a superset of the exact set.
func TestSupersetContract(t *testing.T) {
	const procs = 96
	exact := New(FullMap, procs, 0, 0)
	orgs := map[string]Set{
		"limited-pointer": New(LimitedPtr, procs, 4, 0),
		"coarse-vector":   New(CoarseVector, procs, 0, 8),
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
		for _, id := range collect(exact) {
			for name, s := range orgs {
				if !s.Contains(id) {
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
	build := func(org Org) Set {
		s := New(org, 128, 3, 4)
		for _, id := range []int{90, 2, 45, 44, 127, 3} {
			s.Add(id)
		}
		return s
	}
	for _, org := range []Org{FullMap, LimitedPtr, CoarseVector} {
		a, b := collect(build(org)), collect(build(org))
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
			if got := s.Next(id); got != want {
				t.Fatalf("%v: Next(%d) = %d, want %d", org, id, got, want)
			}
		}
	}
}

func TestNoneView(t *testing.T) {
	if None.Len() != 0 || None.Contains(0) || None.Overflowed() || !None.Precise() {
		t.Fatal("None must be the precise empty view")
	}
	if id := None.Next(0); id != -1 {
		t.Fatalf("None.Next(0) = %d, want -1", id)
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
