package stats

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"

	"latsim/internal/sim"
)

// TestProcJSONRoundTrip guards the persistent result cache's invariant:
// a Proc survives a JSON round trip exactly, unexported run-length
// histogram included.
func TestProcJSONRoundTrip(t *testing.T) {
	p := &Proc{
		SharedReads:  100,
		SharedWrites: 40,
		ReadMisses:   9,
		Locks:        3,
	}
	p.Add(Busy, 1234)
	p.Add(ReadStall, 567)
	p.RecordRun(11)
	p.RecordRun(11)
	p.RecordRun(22)
	// Both sides of the edge between the dense part and the pairs, long
	// lengths out of order and repeated, and one past the clamp.
	for _, l := range []sim.Time{255, 256, 257, 1000, 300, 1000, 257, maxRunLength, 300, 1000} {
		p.RecordRun(l)
	}
	p.RecordRun(maxRunLength + 100) // clamps into the last bucket

	b, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var q Proc
	if err := json.Unmarshal(b, &q); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, &q) {
		t.Fatalf("round trip changed the Proc:\n  in:  %+v\n  out: %+v", p, q)
	}
	if q.MedianRunLength() != p.MedianRunLength() || q.MeanRunLength() != p.MeanRunLength() {
		t.Fatalf("run-length stats changed: median %d->%d mean %g->%g",
			p.MedianRunLength(), q.MedianRunLength(), p.MeanRunLength(), q.MeanRunLength())
	}

	b2, err := json.Marshal(&q)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != string(b2) {
		t.Fatalf("re-encoding differs:\n  %s\n  %s", b, b2)
	}
}

// refRunHist is the run-length histogram as one dense array of
// maxRunLength+1 counts, the plainest correct form: Proc's two-part
// histogram must match it exactly.
type refRunHist struct {
	hist [maxRunLength + 1]uint32
	runs uint64
}

func (r *refRunHist) record(length sim.Time) {
	r.hist[min(length, maxRunLength)]++
	r.runs++
}

func (r *refRunHist) mean() float64 {
	if r.runs == 0 {
		return 0
	}
	var sum uint64
	for l, c := range r.hist {
		sum += uint64(l) * uint64(c)
	}
	return float64(sum) / float64(r.runs)
}

func (r *refRunHist) quantile(q float64) sim.Time {
	if r.runs == 0 {
		return 0
	}
	rank := quantileRank(q, r.runs)
	var seen uint64
	for l, c := range r.hist {
		seen += uint64(c)
		if seen >= rank {
			return sim.Time(l)
		}
	}
	return maxRunLength
}

// marshal encodes p's exported fields with r as its run histogram: the
// bytes Proc.MarshalJSON must write, on which the result cache and the
// bench digests depend.
func (r *refRunHist) marshal(p *Proc) ([]byte, error) {
	type alias Proc
	aux := struct {
		*alias
		RunHist [][2]uint64 `json:"run_hist,omitempty"`
		Runs    uint64      `json:"runs,omitempty"`
	}{alias: (*alias)(p), Runs: r.runs}
	for l, c := range r.hist {
		if c != 0 {
			aux.RunHist = append(aux.RunHist, [2]uint64{uint64(l), uint64(c)})
		}
	}
	return json.Marshal(aux)
}

// TestRunHistMatchesDenseReference records a seeded mix of run lengths
// (short ones, ones around the edge of the dense part, and long ones up
// to past the clamp) into a Proc and into the dense reference, and
// checks at several points that the mean, the quantiles and the JSON
// bytes agree.
func TestRunHistMatchesDenseReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := &Proc{SharedReads: 7, Locks: 2}
	p.Add(Busy, 99)
	var ref refRunHist
	check := func(n int) {
		t.Helper()
		if got, want := p.MeanRunLength(), ref.mean(); got != want {
			t.Errorf("after %d runs: MeanRunLength = %v, reference %v", n, got, want)
		}
		if got, want := p.MedianRunLength(), ref.quantile(0.5); got != want {
			t.Errorf("after %d runs: MedianRunLength = %d, reference %d", n, got, want)
		}
		for _, q := range []float64{0, 0.1, 0.5, 0.9, 0.99, 1} {
			if got, want := p.RunLengthQuantile(q), ref.quantile(q); got != want {
				t.Errorf("after %d runs: RunLengthQuantile(%v) = %d, reference %d", n, q, got, want)
			}
		}
		got, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("after %d runs: MarshalJSON differs from the reference:\n  got:  %s\n  want: %s", n, got, want)
		}
	}
	check(0)
	for n := 1; n <= 10000; n++ {
		var l sim.Time
		switch rng.Intn(3) {
		case 0:
			l = sim.Time(rng.Intn(denseRuns))
		case 1:
			l = sim.Time(denseRuns - 16 + rng.Intn(32))
		default:
			l = sim.Time(rng.Intn(5001))
		}
		p.RecordRun(l)
		ref.record(l)
		if n == 1 || n == 10 || n == 100 || n == 1000 || n == 10000 {
			check(n)
		}
	}
}

// TestRunHistDecodeMergesPairs: a document whose pairs repeat lengths,
// come out of order or pass the clamp decodes to the Proc that records
// those runs, and one whose run count disagrees with its pairs is
// rejected.
func TestRunHistDecodeMergesPairs(t *testing.T) {
	doc := `{"run_hist":[[300,2],[5,1],[300,3],[5000,1],[4096,2],[9000,1],[5,1],[255,1],[256,1]],"runs":13}`
	var got Proc
	if err := json.Unmarshal([]byte(doc), &got); err != nil {
		t.Fatal(err)
	}
	var want Proc
	for _, r := range []struct {
		length sim.Time
		n      int
	}{{300, 5}, {5, 2}, {5000, 1}, {4096, 2}, {9000, 1}, {255, 1}, {256, 1}} {
		for i := 0; i < r.n; i++ {
			want.RecordRun(r.length)
		}
	}
	if !reflect.DeepEqual(&got, &want) {
		t.Errorf("decoded %+v\nrecorded %+v", got, want)
	}
	var bad Proc
	if err := json.Unmarshal([]byte(`{"run_hist":[[5,1],[300,1]],"runs":3}`), &bad); err == nil {
		t.Error("a document counting 3 runs over pairs holding 2 decoded without error")
	}
}
