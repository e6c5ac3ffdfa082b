// Package sched is the simdet golden fixture: the test configures the
// analyzer to treat this package as event-scheduled, so wall-clock
// time, the global math/rand source, order-dependent map iteration and
// package-level vars are all violations here.
package sched

import (
	"math/rand"
	"sort"
	"time"
)

var runs int // want `package-level var runs is shared by every run in the process`

// A blank var holds no state, so it stays silent.
var _ = sort.Ints

func wallClock() time.Time {
	return time.Now() // want `wall-clock time.Now in event-scheduled package`
}

func wallSleep() {
	time.Sleep(time.Millisecond) // want `wall-clock time.Sleep in event-scheduled package`
}

func globalRand() int {
	return rand.Intn(10) // want `global math/rand source Intn is not seeded per run`
}

func seededRand(seed int64) int {
	r := rand.New(rand.NewSource(seed)) // ok: explicit per-run source
	return r.Intn(10)
}

func orderDependent(m map[int]int) []int {
	var out []int
	for _, v := range m { // want `map iteration order reaches order-sensitive code`
		out = append(out, v)
	}
	return out
}

func orderDependentCall(m map[int]int, f func(int)) {
	for k := range m { // want `map iteration order reaches order-sensitive code`
		f(k)
	}
}

func sharerFanout(sharers map[int]bool) int {
	n := 0
	// The body is a pure count — order-insensitive — but a map-backed
	// sharer collection is flagged regardless: sharer sets must live
	// behind dirset, whose iteration order is ascending by contract.
	for range sharers { // want `sharer sets must not be map-backed`
		n++
	}
	return n
}

type dirLine struct {
	sharerMask map[int]struct{}
}

func (d *dirLine) invalidateAll(send func(int)) {
	for id := range d.sharerMask { // want `sharer sets must not be map-backed`
		send(id)
	}
}

func sharerJustified(sharers map[int]bool) int {
	n := 0
	//simdet:unordered — footprint count only; no event order depends on it
	for range sharers {
		n++
	}
	return n
}

// --- negative cases: all silent ---

func sum(m map[int]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}

func count(m map[int]int) int {
	n := 0
	for range m {
		n++
	}
	return n
}

func invert(m map[int]int) map[int]int {
	out := make(map[int]int, len(m))
	for k, v := range m {
		out[v] = k
	}
	return out
}

func clear_(m map[int]int) {
	for k := range m {
		delete(m, k)
	}
}

func maxVal(m map[int]int) int {
	best := 0
	// A max-reduce is order-insensitive in fact, but a plain overwrite
	// of a shared local is beyond what the analyzer proves — the author
	// asserts it with the justification marker.
	//simdet:unordered
	for _, v := range m {
		if v > best {
			best = v
		}
	}
	return best
}

func sortedKeys(m map[int]int) []int {
	keys := make([]int, 0, len(m))
	//simdet:unordered — keys are sorted before use below
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

func constDuration() time.Duration {
	return 5 * time.Millisecond // referencing time constants is fine
}
