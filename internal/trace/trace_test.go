package trace

import (
	"bytes"
	"reflect"
	"testing"

	"latsim/internal/apps/lu"
	"latsim/internal/apps/mp3d"
	"latsim/internal/apps/pthor"
	"latsim/internal/config"
	"latsim/internal/cpu"
	"latsim/internal/machine"
	"latsim/internal/mem"
	"latsim/internal/obs"
)

func record(t testing.TB, cfg config.Config) (*Trace, *machine.Result) {
	t.Helper()
	rec := NewRecorder(lu.New(lu.Scaled(24)))
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(rec)
	if err != nil {
		t.Fatal(err)
	}
	return rec.Trace(), res
}

func replay(t *testing.T, tr *Trace, cfg config.Config) *machine.Result {
	t.Helper()
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(NewReplayer(tr))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func cfg4(mut func(*config.Config)) config.Config {
	c := config.Default()
	c.Procs = 4
	if mut != nil {
		mut(&c)
	}
	return c
}

func TestRecordCapturesStreams(t *testing.T) {
	tr, res := record(t, cfg4(nil))
	if tr.Procs != 4 {
		t.Fatalf("procs = %d", tr.Procs)
	}
	if tr.Events() == 0 {
		t.Fatal("no events recorded")
	}
	// Every shared read/write the machine saw must be in the trace.
	var reads, writes uint64
	for _, st := range tr.Streams {
		for _, ev := range st {
			switch ev.Kind {
			case 3: // TRead
				reads++
			case 4: // TWrite
				writes++
			}
		}
	}
	if reads != res.SharedReads() || writes != res.SharedWrites() {
		t.Errorf("trace has %d/%d reads/writes, machine counted %d/%d",
			reads, writes, res.SharedReads(), res.SharedWrites())
	}
	if tr.Locks == 0 || len(tr.Barriers) == 0 {
		t.Error("synchronization objects not recorded")
	}
}

func TestRecordingDoesNotPerturbTiming(t *testing.T) {
	plain, err := machine.New(cfg4(nil))
	if err != nil {
		t.Fatal(err)
	}
	resPlain, err := plain.Run(lu.New(lu.Scaled(24)))
	if err != nil {
		t.Fatal(err)
	}
	_, resRec := record(t, cfg4(nil))
	if resPlain.Elapsed != resRec.Elapsed {
		t.Errorf("recording changed timing: %d vs %d", resPlain.Elapsed, resRec.Elapsed)
	}
}

func TestReplayMatchesReferenceCounts(t *testing.T) {
	tr, rec := record(t, cfg4(nil))
	rep := replay(t, tr, cfg4(nil))
	if rep.SharedReads() != rec.SharedReads() || rep.SharedWrites() != rec.SharedWrites() {
		t.Errorf("replay refs %d/%d != recorded %d/%d",
			rep.SharedReads(), rep.SharedWrites(), rec.SharedReads(), rec.SharedWrites())
	}
	if rep.Locks() != rec.Locks() || rep.Barriers() != rec.Barriers() {
		t.Errorf("replay sync %d/%d != recorded %d/%d",
			rep.Locks(), rep.Barriers(), rec.Locks(), rec.Barriers())
	}
	// Trace-driven timing approximates execution-driven timing on the
	// same configuration (addresses are remapped and the interleaving is
	// frozen, so not exact: +1.27% here).
	lo, hi := rec.Elapsed*95/100, rec.Elapsed*105/100
	if rep.Elapsed < lo || rep.Elapsed > hi {
		t.Errorf("replay elapsed %d far from recorded %d", rep.Elapsed, rec.Elapsed)
	}
}

func TestReplayUnderDifferentModel(t *testing.T) {
	tr, _ := record(t, cfg4(nil)) // recorded under SC
	sc := replay(t, tr, cfg4(nil))
	rc := replay(t, tr, cfg4(func(c *config.Config) { c.Model = config.RC }))
	if rc.Elapsed >= sc.Elapsed {
		t.Errorf("trace-driven RC (%d) not faster than SC (%d)", rc.Elapsed, sc.Elapsed)
	}
}

func TestReplayWrongProcessCountFails(t *testing.T) {
	tr, _ := record(t, cfg4(nil))
	m, err := machine.New(cfg4(func(c *config.Config) { c.Procs = 8 }))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(NewReplayer(tr)); err == nil {
		t.Error("replay with mismatched process count should fail")
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	tr, _ := record(t, cfg4(nil))
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.AppName != tr.AppName || got.Procs != tr.Procs || got.Locks != tr.Locks {
		t.Errorf("header mismatch: %+v vs %+v", got, tr)
	}
	if got.Events() != tr.Events() {
		t.Fatalf("events %d != %d", got.Events(), tr.Events())
	}
	for p := range tr.Streams {
		for i := range tr.Streams[p] {
			if got.Streams[p][i] != tr.Streams[p][i] {
				t.Fatalf("stream %d event %d differs: %+v vs %+v",
					p, i, got.Streams[p][i], tr.Streams[p][i])
			}
		}
	}
	// A round-tripped trace replays identically.
	r1 := replay(t, tr, cfg4(nil))
	r2 := replay(t, got, cfg4(nil))
	if r1.Elapsed != r2.Elapsed {
		t.Errorf("round-tripped trace replays differently: %d vs %d", r1.Elapsed, r2.Elapsed)
	}
}

func TestReadTraceRejectsGarbage(t *testing.T) {
	if _, err := ReadTrace(bytes.NewReader([]byte("not a trace file"))); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := ReadTrace(bytes.NewReader(nil)); err == nil {
		t.Error("empty input accepted")
	}
}

// tinyTrace is a valid two-process trace: a lock, a barrier and a read.
func tinyTrace() *Trace {
	return &Trace{
		AppName:   "tiny",
		Procs:     2,
		Shared:    3 * mem.LineSize,
		Locks:     1,
		Barriers:  []int32{2},
		PageHomes: map[uint64]int32{1: 0},
		Streams: [][]Event{
			{{Kind: cpu.TLock}, {Kind: cpu.TUnlock}, {Kind: cpu.TBarrier}},
			{{Kind: cpu.TRead, Addr: mem.PageSize + 2*mem.LineSize}, {Kind: cpu.TBarrier}},
		},
	}
}

// wideSpan makes tr reference two addresses 2^40 bytes apart: a replay
// would place the 2^28 pages between them.
func wideSpan(tr *Trace) {
	tr.Streams[1] = append(tr.Streams[1],
		Event{Kind: cpu.TRead, Addr: mem.PageSize}, Event{Kind: cpu.TWrite, Addr: mem.PageSize + 1<<40})
}

func encode(t testing.TB, tr *Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReadTraceRejectsUnreplayable pins the decoder's validation: each
// mutation below decodes silently without it, and the replay then
// panics in Setup or in the replaying process, or places pages without
// bound.
func TestReadTraceRejectsUnreplayable(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Trace)
	}{
		{"valid", func(*Trace) {}},
		{"lock id out of range", func(tr *Trace) { tr.Locks = 0; tr.Streams[0][0].Obj = 7 }},
		{"barrier id out of range", func(tr *Trace) { tr.Barriers = nil; tr.Streams[0][2].Obj = 3 }},
		{"negative page home", func(tr *Trace) { tr.PageHomes[1] = -3 }},
		{"barrier with 0 participants", func(tr *Trace) { tr.Barriers[0] = 0 }},
		{"address span of 2^40 bytes", wideSpan},
		{"negative shared size", func(tr *Trace) { tr.Shared = -1 }},
		{"shared size over 4 GiB", func(tr *Trace) { tr.Shared = 1<<32 + 1 }},
		{"two releases of a lock neither process holds", func(tr *Trace) {
			tr.Streams[0] = tr.Streams[0][1:]
			tr.Streams[1] = append([]Event{{Kind: cpu.TUnlock}}, tr.Streams[1]...)
		}},
	}
	for _, c := range cases {
		tr := tinyTrace()
		c.mut(tr)
		_, err := ReadTrace(bytes.NewReader(encode(t, tr)))
		if valid := c.name == "valid"; (err == nil) != valid {
			t.Errorf("%s: err = %v", c.name, err)
		}
	}
}

// TestReplayPreHoldsForeignRelease: a process that releases a lock
// before it ever acquires it releases the lock's initial hold, so the
// replay creates that lock held. Here process 0 unlocks lock 0 and then
// locks it; the release and acquire counts are equal.
func TestReplayPreHoldsForeignRelease(t *testing.T) {
	tr := tinyTrace()
	tr.Streams[0] = []Event{{Kind: cpu.TUnlock}, {Kind: cpu.TLock}, {Kind: cpu.TBarrier}}
	got, err := ReadTrace(bytes.NewReader(encode(t, tr)))
	if err != nil {
		t.Fatal(err)
	}
	if res := replay(t, got, cfg4(func(c *config.Config) { c.Procs = 2 })); res.Locks() != 1 {
		t.Errorf("replay acquired %d locks, want 1", res.Locks())
	}
}

// TestRecordedAppsReadAndReplay: the span bound accepts what the paper's
// applications record, and each decoded trace replays.
func TestRecordedAppsReadAndReplay(t *testing.T) {
	for _, app := range []machine.App{
		lu.New(lu.Scaled(24)),
		mp3d.New(mp3d.Scaled(200, 2)),
		pthor.New(pthor.Scaled(200, 2)),
	} {
		m, err := machine.New(cfg4(nil))
		if err != nil {
			t.Fatal(err)
		}
		rec := NewRecorder(app)
		if _, err := m.Run(rec); err != nil {
			t.Fatal(err)
		}
		tr, err := ReadTrace(bytes.NewReader(encode(t, rec.Trace())))
		if err != nil {
			t.Errorf("%s: %v", app.Name(), err)
			continue
		}
		if rep := replay(t, tr, cfg4(nil)); rep.SharedReads() == 0 {
			t.Errorf("%s: replay issued no reads", app.Name())
		}
	}
}

// FuzzReadTrace feeds arbitrary bytes to the decoder: it must never
// panic, and a trace it accepts must re-encode and decode unchanged.
func FuzzReadTrace(f *testing.F) {
	tr, _ := record(f, cfg4(nil))
	f.Add(encode(f, tr))
	crafted := tinyTrace()
	wideSpan(crafted)
	f.Add(encode(f, crafted))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if _, err := tr.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := ReadTrace(&buf)
		if err != nil {
			t.Fatalf("re-encoded trace rejected: %v", err)
		}
		if !reflect.DeepEqual(got, tr) {
			t.Fatal("re-encoded trace decodes to a different Trace")
		}
	})
}

// TestReplayObsDeterminism replays the same trace twice with the
// observability recorder enabled: the reports — time series, latency
// histograms and per-processor timelines — must be bit-identical.
func TestReplayObsDeterminism(t *testing.T) {
	tr, _ := record(t, cfg4(nil))
	run := func() *obs.Report {
		m, err := machine.New(cfg4(func(c *config.Config) { c.Model = config.RC }))
		if err != nil {
			t.Fatal(err)
		}
		m.EnableObs(obs.Options{Interval: 512})
		res, err := m.Run(NewReplayer(tr))
		if err != nil {
			t.Fatal(err)
		}
		return res.Obs
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Error("replaying the same trace produced different observability reports")
	}
	if len(a.Hists) == 0 || len(a.Tracks) != 4 {
		t.Errorf("report is empty: %d hists, %d tracks", len(a.Hists), len(a.Tracks))
	}
}
