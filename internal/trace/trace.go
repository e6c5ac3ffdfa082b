// Package trace captures and replays shared-reference traces, the other
// half of the Tango methodology: execution-driven simulation generates a
// reference stream that can be stored and replayed (trace-driven
// simulation) under different machine configurations.
//
// A trace records, per process, the exact operation stream the
// application submitted: computation blocks, shared reads/writes,
// prefetches, and synchronization operations (locks and barriers recorded
// by stable object ids). Replaying reproduces the timing-relevant
// behaviour without re-executing the application — with the usual
// trace-driven caveat that the interleaving was fixed by the recording
// configuration, so feedback effects (e.g. a different process winning a
// lock race) are frozen.
package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sort"

	"latsim/internal/cpu"
	"latsim/internal/machine"
	"latsim/internal/mem"
	"latsim/internal/msync"
)

// Event is one recorded operation.
type Event struct {
	Kind cpu.TraceKind
	Addr mem.Addr // memory operations
	N    int32    // compute/spin cycles
	Obj  int32    // lock or barrier id for sync operations
}

// Trace is a complete captured run.
type Trace struct {
	AppName  string
	Procs    int     // processes recorded
	Shared   int64   // bytes of shared memory the app allocated
	Locks    int     // distinct locks
	Barriers []int32 // participants per barrier id
	// PageHomes records the home node of every referenced page, so a
	// replay reproduces the recording's data placement (without it,
	// LU's node-local columns would replay as round-robin pages and the
	// timing would drift).
	PageHomes map[uint64]int32
	Streams   [][]Event
}

// Recorder wraps an application, recording its reference streams while it
// runs normally.
type Recorder struct {
	App machine.App

	m        *machine.Machine
	trace    *Trace
	lockIDs  map[*msync.Lock]int32
	barIDs   map[*msync.Barrier]int32
	barriers []*msync.Barrier
}

// NewRecorder wraps app.
func NewRecorder(app machine.App) *Recorder {
	return &Recorder{
		App:     app,
		lockIDs: make(map[*msync.Lock]int32),
		barIDs:  make(map[*msync.Barrier]int32),
	}
}

// Name implements machine.App.
func (r *Recorder) Name() string { return r.App.Name() + "+record" }

// Setup implements machine.App: it installs the trace hooks after the
// wrapped application's setup.
func (r *Recorder) Setup(m *machine.Machine) error {
	if err := r.App.Setup(m); err != nil {
		return err
	}
	r.m = m
	n := m.Config().TotalProcesses()
	r.trace = &Trace{
		AppName:   r.App.Name(),
		Procs:     n,
		PageHomes: make(map[uint64]int32),
		Streams:   make([][]Event, n),
	}
	for _, p := range m.Processors() {
		p.SetTrace(r.observe)
	}
	r.trace.Shared = int64(m.SharedBytes())
	return nil
}

// observe is the cpu.TraceFn hook.
func (r *Recorder) observe(pid int, kind cpu.TraceKind, addr mem.Addr, n int, lock *msync.Lock, bar *msync.Barrier) {
	ev := Event{Kind: kind, Addr: addr, N: int32(n)}
	switch {
	case lock != nil:
		id, ok := r.lockIDs[lock]
		if !ok {
			id = int32(len(r.lockIDs))
			r.lockIDs[lock] = id
		}
		ev.Obj = id
		ev.Addr = lock.Addr()
	case bar != nil:
		id, ok := r.barIDs[bar]
		if !ok {
			id = int32(len(r.barIDs))
			r.barIDs[bar] = id
			r.barriers = append(r.barriers, bar)
			r.trace.Barriers = append(r.trace.Barriers, int32(bar.Total()))
		}
		ev.Obj = id
		ev.Addr = bar.CounterAddr()
	}
	switch kind {
	case cpu.TRead, cpu.TWrite, cpu.TPrefetch, cpu.TPrefetchExcl:
		page := mem.PageOf(addr)
		if _, ok := r.trace.PageHomes[page]; !ok {
			r.trace.PageHomes[page] = int32(r.m.HomeOf(addr))
		}
	}
	r.trace.Streams[pid] = append(r.trace.Streams[pid], ev)
}

// Worker implements machine.App.
func (r *Recorder) Worker(e *cpu.Env, pid, nprocs int) { r.App.Worker(e, pid, nprocs) }

// Trace returns the captured trace (after the run).
func (r *Recorder) Trace() *Trace {
	r.trace.Locks = len(r.lockIDs)
	return r.trace
}

// Replayer is a machine.App that re-issues a captured trace. The replay
// machine must run the same number of processes as the recording.
type Replayer struct {
	T *Trace

	locks []*msync.Lock
	bars  []*msync.Barrier
	base  mem.Addr
	// Recorded addresses are remapped into one fresh allocation so the
	// replay machine's allocator sees the same pages/homes layout scale.
	lo, hi mem.Addr
}

// NewReplayer builds a replayer for t.
func NewReplayer(t *Trace) *Replayer { return &Replayer{T: t} }

// Name implements machine.App.
func (p *Replayer) Name() string { return p.T.AppName + "+replay" }

// Setup allocates a flat shared region covering every recorded address
// and recreates the synchronization objects.
func (p *Replayer) Setup(m *machine.Machine) error {
	if m.Config().TotalProcesses() != p.T.Procs {
		return fmt.Errorf("trace: recorded with %d processes, machine runs %d", p.T.Procs, m.Config().TotalProcesses())
	}
	p.lo, p.hi = ^mem.Addr(0), 0
	for _, st := range p.T.Streams {
		for _, ev := range st {
			switch ev.Kind {
			case cpu.TRead, cpu.TWrite, cpu.TPrefetch, cpu.TPrefetchExcl:
				if ev.Addr < p.lo {
					p.lo = ev.Addr
				}
				if ev.Addr > p.hi {
					p.hi = ev.Addr
				}
			}
		}
	}
	if p.lo > p.hi {
		p.lo, p.hi = 0, 0
	}
	// Allocate page by page, placing each on the node that was its home
	// in the recording (modulo the replay machine's node count).
	loPage := mem.PageOf(p.lo)
	hiPage := mem.PageOf(p.hi)
	procs := m.Config().Procs
	for pg := loPage; pg <= hiPage; pg++ {
		home := int(pg) % procs
		if h, ok := p.T.PageHomes[pg]; ok {
			home = int(h) % procs
		}
		a := m.AllocOnNode(mem.PageSize, home)
		if pg == loPage {
			p.base = a + mem.Addr(uint64(p.lo)-pg*mem.PageSize)
		}
	}
	// A lock whose recorded stream releases it more often than it
	// acquires it began the run held (producer/consumer locks created
	// with SetHeld, like LU's column locks).
	acquires := make([]int, p.T.Locks)
	releases := make([]int, p.T.Locks)
	for _, st := range p.T.Streams {
		for _, ev := range st {
			switch ev.Kind {
			case cpu.TLock:
				acquires[ev.Obj]++
			case cpu.TUnlock:
				releases[ev.Obj]++
			}
		}
	}
	for i := 0; i < p.T.Locks; i++ {
		lk := m.NewLock()
		if releases[i] > acquires[i] {
			lk.SetHeld()
		}
		p.locks = append(p.locks, lk)
	}
	for _, total := range p.T.Barriers {
		p.bars = append(p.bars, m.NewBarrier(int(total)))
	}
	return nil
}

// Worker replays one process's stream. The whole stream is one region
// (cpu.Env.Queue): a replay runs no application code, and its
// synchronization operations and spins wait for the queue themselves.
func (p *Replayer) Worker(e *cpu.Env, pid, nprocs int) {
	e.Queue()
	for _, ev := range p.T.Streams[pid] {
		switch ev.Kind {
		case cpu.TCompute:
			e.Compute(int(ev.N))
		case cpu.TPFCompute:
			e.PFCompute(int(ev.N))
		case cpu.TSpin:
			e.SpinWait(int(ev.N))
		case cpu.TRead:
			e.Read(p.remap(ev.Addr))
		case cpu.TWrite:
			e.Write(p.remap(ev.Addr))
		case cpu.TPrefetch:
			e.Prefetch(p.remap(ev.Addr))
		case cpu.TPrefetchExcl:
			e.PrefetchExcl(p.remap(ev.Addr))
		case cpu.TLock:
			e.Lock(p.locks[ev.Obj])
		case cpu.TUnlock:
			e.Unlock(p.locks[ev.Obj])
		case cpu.TBarrier:
			e.Barrier(p.bars[ev.Obj])
		}
	}
	e.Wait()
}

func (p *Replayer) remap(a mem.Addr) mem.Addr { return p.base + (a - p.lo) }

// Events returns the total number of recorded events.
func (t *Trace) Events() int {
	n := 0
	for _, s := range t.Streams {
		n += len(s)
	}
	return n
}

// Serialization: a simple self-describing little-endian binary format.

const magic = uint32(0x4c415431) // "LAT1"

// WriteTo serializes the trace.
func (t *Trace) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	write := func(v any) error {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
		n += int64(binary.Size(v))
		return nil
	}
	if err := write(magic); err != nil {
		return n, err
	}
	name := []byte(t.AppName)
	if err := write(uint32(len(name))); err != nil {
		return n, err
	}
	if err := write(name); err != nil {
		return n, err
	}
	if err := write(uint32(t.Procs)); err != nil {
		return n, err
	}
	if err := write(t.Shared); err != nil {
		return n, err
	}
	if err := write(uint32(t.Locks)); err != nil {
		return n, err
	}
	if err := write(uint32(len(t.Barriers))); err != nil {
		return n, err
	}
	if err := write(t.Barriers); err != nil {
		return n, err
	}
	pages := make([]uint64, 0, len(t.PageHomes))
	for pg := range t.PageHomes {
		pages = append(pages, pg)
	}
	sort.Slice(pages, func(i, j int) bool { return pages[i] < pages[j] })
	if err := write(uint32(len(pages))); err != nil {
		return n, err
	}
	for _, pg := range pages {
		if err := write(pg); err != nil {
			return n, err
		}
		if err := write(t.PageHomes[pg]); err != nil {
			return n, err
		}
	}
	for _, st := range t.Streams {
		if err := write(uint64(len(st))); err != nil {
			return n, err
		}
		for _, ev := range st {
			if err := write(uint8(ev.Kind)); err != nil {
				return n, err
			}
			if err := write(uint64(ev.Addr)); err != nil {
				return n, err
			}
			if err := write(ev.N); err != nil {
				return n, err
			}
			if err := write(ev.Obj); err != nil {
				return n, err
			}
		}
	}
	return n, bw.Flush()
}

// maxSpanPages bounds the pages from the lowest to the highest memory
// address that a recording of shared bytes by procs processes references.
// Replayer.Setup places every page in that span, so the bound keeps a
// crafted trace from making it place billions. Within each placement
// domain (a node, or the round-robin pool) a page abandoned for an
// allocation that did not fit holds, together with that allocation, more
// than a page of data, and a multi-page allocation fills more than half
// of its pages; each domain then leaves one partial page, and there are
// at most procs+1 domains.
func maxSpanPages(shared int64, procs int) uint64 {
	return 2*uint64((shared+mem.PageSize-1)/mem.PageSize) + uint64(procs) + 1
}

// ReadTrace deserializes a trace written by WriteTo. It rejects lock and
// barrier ids out of range, barrier participant counts outside
// [1, Procs], negative page homes and memory references spanning more
// pages than the recorded shared data can occupy, each of which would
// make a replay panic or place pages without bound.
func ReadTrace(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	read := func(v any) error { return binary.Read(br, binary.LittleEndian, v) }
	var m uint32
	if err := read(&m); err != nil {
		return nil, err
	}
	if m != magic {
		return nil, fmt.Errorf("trace: bad magic %#x", m)
	}
	var nameLen uint32
	if err := read(&nameLen); err != nil {
		return nil, err
	}
	if nameLen > 1<<16 {
		return nil, fmt.Errorf("trace: app name too long (%d)", nameLen)
	}
	name := make([]byte, nameLen)
	if err := read(&name); err != nil {
		return nil, err
	}
	t := &Trace{AppName: string(name)}
	var procs, locks, nbars uint32
	if err := read(&procs); err != nil {
		return nil, err
	}
	if err := read(&t.Shared); err != nil {
		return nil, err
	}
	if err := read(&locks); err != nil {
		return nil, err
	}
	if err := read(&nbars); err != nil {
		return nil, err
	}
	if procs > 1<<12 || locks > 1<<20 || nbars > 1<<20 || t.Shared < 0 || t.Shared > 1<<32 {
		return nil, fmt.Errorf("trace: implausible header (procs=%d shared=%d locks=%d barriers=%d)", procs, t.Shared, locks, nbars)
	}
	t.Procs = int(procs)
	t.Locks = int(locks)
	t.Barriers = make([]int32, nbars)
	if err := read(&t.Barriers); err != nil {
		return nil, err
	}
	for id, total := range t.Barriers {
		if total < 1 || int(total) > t.Procs {
			return nil, fmt.Errorf("trace: barrier %d has %d participants, want 1..%d", id, total, t.Procs)
		}
	}
	var npages uint32
	if err := read(&npages); err != nil {
		return nil, err
	}
	if npages > 1<<24 {
		return nil, fmt.Errorf("trace: implausible page count %d", npages)
	}
	t.PageHomes = make(map[uint64]int32)
	for i := uint32(0); i < npages; i++ {
		var pg uint64
		var home int32
		if err := read(&pg); err != nil {
			return nil, err
		}
		if err := read(&home); err != nil {
			return nil, err
		}
		if home < 0 {
			return nil, fmt.Errorf("trace: page %d has home node %d", pg, home)
		}
		t.PageHomes[pg] = home
	}
	t.Streams = make([][]Event, t.Procs)
	lo, hi := ^mem.Addr(0), mem.Addr(0)
	for i := 0; i < t.Procs; i++ {
		var count uint64
		if err := read(&count); err != nil {
			return nil, err
		}
		if count > 1<<32 {
			return nil, fmt.Errorf("trace: implausible stream length %d", count)
		}
		// The stream grows as events arrive: the header's count alone
		// must not size an allocation.
		var st []Event
		for j := uint64(0); j < count; j++ {
			var ev Event
			var k uint8
			var addr uint64
			if err := read(&k); err != nil {
				return nil, err
			}
			if err := read(&addr); err != nil {
				return nil, err
			}
			if err := read(&ev.N); err != nil {
				return nil, err
			}
			if err := read(&ev.Obj); err != nil {
				return nil, err
			}
			ev.Kind = cpu.TraceKind(k)
			ev.Addr = mem.Addr(addr)
			switch ev.Kind {
			case cpu.TRead, cpu.TWrite, cpu.TPrefetch, cpu.TPrefetchExcl:
				lo, hi = min(lo, ev.Addr), max(hi, ev.Addr)
			case cpu.TLock, cpu.TUnlock:
				if ev.Obj < 0 || int(ev.Obj) >= t.Locks {
					return nil, fmt.Errorf("trace: process %d event %d: lock %d of %d", i, j, ev.Obj, t.Locks)
				}
			case cpu.TBarrier:
				if ev.Obj < 0 || int(ev.Obj) >= len(t.Barriers) {
					return nil, fmt.Errorf("trace: process %d event %d: barrier %d of %d", i, j, ev.Obj, len(t.Barriers))
				}
			}
			st = append(st, ev)
		}
		t.Streams[i] = st
	}
	if lo <= hi {
		if span, limit := mem.PageOf(hi)-mem.PageOf(lo)+1, maxSpanPages(t.Shared, t.Procs); span > limit {
			return nil, fmt.Errorf("trace: memory references span %d pages, more than %d bytes of shared data can occupy (%d)", span, t.Shared, limit)
		}
	}
	return t, nil
}

var (
	_ machine.App = (*Recorder)(nil)
	_ machine.App = (*Replayer)(nil)
)
