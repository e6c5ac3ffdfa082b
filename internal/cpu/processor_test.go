package cpu_test

import (
	"reflect"
	"testing"

	"latsim/internal/config"
	"latsim/internal/cpu"
	"latsim/internal/machine"
	"latsim/internal/mem"
	"latsim/internal/msync"
	"latsim/internal/sim"
	"latsim/internal/stats"
)

// app adapts a setup and a worker closure to machine.App. cfg, if set,
// adjusts the default machine configuration before the run.
type app struct {
	cfg    func(c *config.Config)
	setup  func(m *machine.Machine)
	worker func(e *cpu.Env, pid int)
}

func (a *app) Name() string { return "cpu-test" }

func (a *app) Setup(m *machine.Machine) error {
	if a.setup != nil {
		a.setup(m)
	}
	return nil
}

func (a *app) Worker(e *cpu.Env, pid, nprocs int) { a.worker(e, pid) }

func run(t *testing.T, procs int, a *app) *machine.Result {
	t.Helper()
	cfg := config.Default()
	cfg.Procs = procs
	if a.cfg != nil {
		a.cfg(&cfg)
	}
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(a)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestComputeBlockIsOneEvent: every compute block completes through one
// kernel event, even on a lone processor where nothing else is pending, so
// a run of n blocks fires the start event and n more. The same holds when
// the blocks come from a region's queue.
func TestComputeBlockIsOneEvent(t *testing.T) {
	for _, queued := range []bool{false, true} {
		for _, n := range []int{1, 32, 33, 1000} {
			res := run(t, 1, &app{worker: func(e *cpu.Env, pid int) {
				if queued {
					e.Queue()
				}
				for i := 0; i < n; i++ {
					e.Compute(5)
				}
				e.Wait()
			}})
			k := res.Kernel
			if want := 5 * n; res.Elapsed != sim.Time(want) {
				t.Errorf("queued=%v n=%d: Elapsed = %d, want %d", queued, n, res.Elapsed, want)
			}
			if k.Fired != uint64(n+1) || k.Advances != 0 {
				t.Errorf("queued=%v n=%d: Fired = %d, Advances = %d; want %d and 0", queued, n, k.Fired, k.Advances, n+1)
			}
		}
	}
}

// TestComputeAfterCompletion: a memory-system completion re-enters the
// context through the same Act as a kernel event, and the compute blocks
// after a remote read (72 cycles, Table 1) add their own cycles.
func TestComputeAfterCompletion(t *testing.T) {
	var remote mem.Addr
	res := run(t, 2, &app{
		setup: func(m *machine.Machine) { remote = m.AllocOnNode(mem.LineSize, 1) },
		worker: func(e *cpu.Env, pid int) {
			if pid != 0 {
				return
			}
			e.Compute(5)
			e.Read(remote)
			for i := 0; i < 3; i++ {
				e.Compute(5)
			}
		},
	})
	if res.Elapsed != 92 {
		t.Errorf("Elapsed = %d, want 92", res.Elapsed)
	}
}

// submission is one operation a trace hook saw: who submitted it, what it
// was and the simulated time it was submitted at.
type submission struct {
	pid  int
	kind cpu.TraceKind
	at   sim.Time
}

// traced runs a on procs processors and returns every operation the
// processes of node 0 submit, with its submission time.
func traced(t *testing.T, procs int, a *app) ([]submission, *machine.Result) {
	t.Helper()
	var subs []submission
	setup := a.setup
	a.setup = func(m *machine.Machine) {
		if setup != nil {
			setup(m)
		}
		m.Processors()[0].SetTrace(func(pid int, k cpu.TraceKind, _ mem.Addr, _ int, _ *msync.Lock, _ *msync.Barrier) {
			subs = append(subs, submission{pid, k, m.Kernel().Now()})
		})
	}
	res := run(t, procs, a)
	return subs, res
}

// issueTimes runs worker on a 2-processor machine and returns, per
// operation process 0 submits, the simulated time its trace hook ran.
func issueTimes(t *testing.T, setup func(m *machine.Machine), worker func(e *cpu.Env, pid int)) ([]cpu.TraceKind, []sim.Time, *machine.Result) {
	t.Helper()
	subs, res := traced(t, 2, &app{setup: setup, worker: func(e *cpu.Env, pid int) {
		if pid == 0 {
			worker(e, pid)
		}
	}})
	var kinds []cpu.TraceKind
	var times []sim.Time
	for _, s := range subs {
		kinds = append(kinds, s.kind)
		times = append(times, s.at)
	}
	return kinds, times, res
}

// TestRegionRunsQueueWithoutResuming: the operations of a region are all
// submitted at the cycle the region starts, because the processor runs
// them from the queue without resuming the process; only a full queue
// yields, so QueueCap+1 operations are submitted at exactly two cycles.
func TestRegionRunsQueueWithoutResuming(t *testing.T) {
	for _, tc := range []struct{ n, cycles int }{{cpu.QueueCap, 1}, {cpu.QueueCap + 1, 2}} {
		n := tc.n
		_, times, res := issueTimes(t, nil, func(e *cpu.Env, pid int) {
			e.Compute(7)
			e.Queue()
			for i := 0; i < n; i++ {
				e.Compute(5)
			}
			e.Wait()
		})
		if want := sim.Time(7 + 5*n); res.Elapsed != want {
			t.Errorf("n=%d: Elapsed = %d, want %d", n, res.Elapsed, want)
		}
		distinct := map[sim.Time]bool{}
		for _, at := range times[1:] {
			distinct[at] = true
		}
		if len(distinct) != tc.cycles || !distinct[7] {
			t.Errorf("n=%d: region ops submitted at %v, want %d distinct cycles starting at 7", n, times[1:], tc.cycles)
		}
	}
}

// TestNowInsideRegion: Now waits for the queued operations, so a region
// reads the same times as the unqueued program.
func TestNowInsideRegion(t *testing.T) {
	var remote mem.Addr
	setup := func(m *machine.Machine) { remote = m.AllocOnNode(4*mem.LineSize, 1) }
	program := func(queued bool) []sim.Time {
		var seen []sim.Time
		run(t, 2, &app{setup: setup, worker: func(e *cpu.Env, pid int) {
			if pid != 0 {
				return
			}
			if queued {
				e.Queue()
			}
			for i := 0; i < 4; i++ {
				e.Read(remote + mem.Addr(i*mem.LineSize))
				e.Compute(3)
				e.Write(remote)
				seen = append(seen, e.Now())
				e.Compute(2)
			}
			e.Wait()
			seen = append(seen, e.Now())
		}})
		return seen
	}
	plain, queued := program(false), program(true)
	if !reflect.DeepEqual(plain, queued) {
		t.Errorf("Now: unqueued %v, queued %v", plain, queued)
	}
}

// TestSyncOpsNeverQueued: Lock, Unlock, SpinWait and Barrier inside a
// region wait for the queue, are submitted where the unqueued program
// submits them, and return to the process at their completion, so the
// operation after each is submitted where the unqueued program submits
// it too.
func TestSyncOpsNeverQueued(t *testing.T) {
	var remote mem.Addr
	var lk *msync.Lock
	var bar *msync.Barrier
	setup := func(m *machine.Machine) {
		remote = m.AllocOnNode(2*mem.LineSize, 1)
		lk = m.NewLockOnNode(1)
		bar = m.NewBarrier(1)
	}
	program := func(queued bool) ([]cpu.TraceKind, []sim.Time, *machine.Result) {
		return issueTimes(t, setup, func(e *cpu.Env, pid int) {
			if queued {
				e.Queue()
			}
			e.Read(remote)
			e.Lock(lk)
			e.Read(remote + mem.LineSize)
			e.Unlock(lk)
			e.SpinWait(4)
			e.Read(remote)
			e.Barrier(bar)
			e.Write(remote)
			e.Wait()
		})
	}
	pk, pt, plain := program(false)
	qk, qt, queued := program(true)
	if !reflect.DeepEqual(pk, qk) {
		t.Fatalf("kinds: unqueued %v, queued %v", pk, qk)
	}
	for i := range pk {
		if pt[i] != qt[i] && (isSync(pk[i]) || i > 0 && isSync(pk[i-1])) {
			t.Errorf("op %d (kind %d) submitted at %d queued, %d unqueued", i, pk[i], qt[i], pt[i])
		}
	}
	if plain.Elapsed != queued.Elapsed || !reflect.DeepEqual(plain.Procs, queued.Procs) {
		t.Errorf("queued run differs: Elapsed %d vs %d, procs %+v vs %+v",
			queued.Elapsed, plain.Elapsed, queued.Procs[0], plain.Procs[0])
	}
}

// TestReturnInsideRegion: a worker that returns with its region open still
// has its queued operations simulated.
func TestReturnInsideRegion(t *testing.T) {
	var remote mem.Addr
	setup := func(m *machine.Machine) { remote = m.AllocOnNode(mem.LineSize, 1) }
	program := func(wait bool) *machine.Result {
		return run(t, 2, &app{setup: setup, worker: func(e *cpu.Env, pid int) {
			if pid != 0 {
				return
			}
			e.Queue()
			e.Compute(5)
			e.Read(remote)
			e.Write(remote)
			e.Compute(5)
			if wait {
				e.Wait()
			}
		}})
	}
	waited, returned := program(true), program(false)
	if waited.Elapsed != returned.Elapsed || !reflect.DeepEqual(waited.Procs, returned.Procs) {
		t.Errorf("return inside region: Elapsed %d, want %d", returned.Elapsed, waited.Elapsed)
	}
	if returned.Procs[0].SharedWrites != 1 {
		t.Errorf("SharedWrites = %d, want 1", returned.Procs[0].SharedWrites)
	}
}

func isSync(k cpu.TraceKind) bool {
	return k == cpu.TLock || k == cpu.TUnlock || k == cpu.TSpin || k == cpu.TBarrier
}

// TestRCWriteBufferFullStalls: under RC a write that finds the write
// buffer full blocks in WriteStall until a slot frees and WBOnSpace
// retries it. With one slot, the second of two remote writes finds the
// first still buffered: the first enters the buffer after its 1-cycle
// issue (cycle 1) and retires when its ownership arrives 64 cycles later
// (Table 1's remote write), so the second, issued at cycle 2, waits
// until cycle 65. Both issues and the closing compute block are busy.
func TestRCWriteBufferFullStalls(t *testing.T) {
	var remote mem.Addr
	res := run(t, 2, &app{
		cfg:   func(c *config.Config) { c.Model = config.RC; c.WriteBufferDepth = 1 },
		setup: func(m *machine.Machine) { remote = m.AllocOnNode(2*mem.LineSize, 1) },
		worker: func(e *cpu.Env, pid int) {
			if pid != 0 {
				return
			}
			e.Write(remote)
			e.Write(remote + mem.LineSize)
			e.Compute(5)
		},
	})
	st := res.Procs[0]
	if res.Elapsed != 70 || st.Time[stats.Busy] != 7 || st.Time[stats.WriteStall] != 63 {
		t.Errorf("Elapsed %d, Busy %d, WriteStall %d; want 70, 7, 63",
			res.Elapsed, st.Time[stats.Busy], st.Time[stats.WriteStall])
	}
	if st.Total() != res.Elapsed || st.WriteMisses != 2 {
		t.Errorf("buckets sum to %d of %d cycles, %d write misses; want all cycles and 2",
			st.Total(), res.Elapsed, st.WriteMisses)
	}
}

// TestPrefetchBufferFullStalls: a prefetch that finds the prefetch
// buffer full stalls the processor until a slot frees, and the wait is
// prefetch overhead, like the issue cycles. The processor issues one
// prefetch per cycle; the buffer takes the head entry out of its one
// slot to check it, one check per 2 cycles (SecCheckWrite). The first
// prefetch enters at cycle 1 and is checked at once, the second waits in
// the slot from cycle 2, and the third finds the slot just freed at
// cycle 3. The fourth, issued at cycle 4, finds the third there until
// the check of the second ends at cycle 5. So the four prefetches cost
// 4 issue cycles and 1 stall, and the compute block ends at cycle 10.
func TestPrefetchBufferFullStalls(t *testing.T) {
	var remote mem.Addr
	res := run(t, 2, &app{
		cfg:   func(c *config.Config) { c.PrefetchBufferDepth = 1; c.PrefetchIssueCycles = 1 },
		setup: func(m *machine.Machine) { remote = m.AllocOnNode(4*mem.LineSize, 1) },
		worker: func(e *cpu.Env, pid int) {
			if pid != 0 {
				return
			}
			for i := 0; i < 4; i++ {
				e.Prefetch(remote + mem.Addr(i*mem.LineSize))
			}
			e.Compute(5)
		},
	})
	st := res.Procs[0]
	if res.Elapsed != 10 || st.Time[stats.Busy] != 5 || st.Time[stats.PrefetchOverhead] != 5 {
		t.Errorf("Elapsed %d, Busy %d, PrefetchOverhead %d; want 10, 5, 5",
			res.Elapsed, st.Time[stats.Busy], st.Time[stats.PrefetchOverhead])
	}
	if st.Total() != res.Elapsed || st.Prefetches != 4 || st.PrefetchUseless != 0 {
		t.Errorf("buckets sum to %d of %d cycles, %d prefetches, %d useless; want all cycles, 4 and 0",
			st.Total(), res.Elapsed, st.Prefetches, st.PrefetchUseless)
	}
}

// checkBuckets asserts process 0's elapsed cycles and its cycles in every
// stall bucket: those in want, and 0 in all others.
func checkBuckets(t *testing.T, res *machine.Result, elapsed sim.Time, want map[stats.Bucket]sim.Time) {
	t.Helper()
	if res.Elapsed != elapsed {
		t.Errorf("Elapsed = %d, want %d", res.Elapsed, elapsed)
	}
	for b := stats.Bucket(0); b < stats.NumBuckets; b++ {
		if got := res.Procs[0].Time[b]; got != want[b] {
			t.Errorf("%v = %d, want %d", b, got, want[b])
		}
	}
}

// TestSCWriteStalls: under SC a write stalls until it retires. A write to
// a remote line blocks in WriteStall for the 64-cycle remote ownership
// latency (Table 1) after its issue cycle; a second write to the line,
// now owned by the secondary cache, stalls only SecCheckWrite (2 cycles).
func TestSCWriteStalls(t *testing.T) {
	var remote mem.Addr
	res := run(t, 2, &app{
		setup: func(m *machine.Machine) { remote = m.AllocOnNode(mem.LineSize, 1) },
		worker: func(e *cpu.Env, pid int) {
			if pid != 0 {
				return
			}
			e.Compute(5)
			e.Write(remote)
			e.Write(remote)
			e.Compute(5)
		},
	})
	checkBuckets(t, res, 78, map[stats.Bucket]sim.Time{stats.Busy: 12, stats.WriteStall: 64 + 2})
	if st := res.Procs[0]; st.WriteMisses != 1 || st.WriteOwnedHit != 1 {
		t.Errorf("WriteMisses %d, WriteOwnedHit %d; want 1 and 1", st.WriteMisses, st.WriteOwnedHit)
	}
}

// TestSCUnlockStalls: under SC an unlock stalls until its store retires,
// either briefly without a context switch or blocked. Two contexts tell
// the two apart: a blocked context leaves the processor idle (AllIdle,
// with no other context ready), a short stall is NoSwitchIdle. Process 0
// takes a lock homed on its own node at cycle 1: a local ownership miss of
// SecCheckWrite 2 + BusHold 4 + MemHold 6 + WriteGrant 6 = 18 cycles. The
// processor switches to its other context, which ends at cycle 5, idles
// until the grant at 19 and switches back at 23. After 200 cycles of
// computation the unlock issues at 224. If the secondary cache still owns
// the lock line, with the write buffer empty and no acks pending, the
// store retires on the ownership check: a short stall of SecCheckWrite (2
// cycles). If process 1's read of the lock line (a spinner's test, done
// long before 224) has taken it back to Shared, the store is an upgrade at
// the local home, and the context blocks for the 18 cycles of an
// ownership miss.
func TestSCUnlockStalls(t *testing.T) {
	def := config.Default()
	check := sim.Time(def.Lat.SecCheckWrite)
	own := check + sim.Time(def.Lat.BusHold+def.Lat.MemHold+def.Lat.WriteGrant)
	pen := sim.Time(def.SwitchPenalty)
	var lk *msync.Lock
	program := func(spin bool) *machine.Result {
		return run(t, 2, &app{
			cfg:   func(c *config.Config) { c.Contexts = 2 },
			setup: func(m *machine.Machine) { lk = m.NewLockOnNode(0) },
			worker: func(e *cpu.Env, pid int) {
				switch {
				case pid == 1 && spin:
					e.Compute(50)
					e.Read(lk.Addr())
				case pid == 0:
					e.Lock(lk)
					e.Compute(200)
					e.Unlock(lk)
					e.Compute(5)
				}
			},
		})
	}
	res := program(false)
	checkBuckets(t, res, 1+own+pen+200+1+check+5, map[stats.Bucket]sim.Time{
		stats.Busy:         207,
		stats.Switching:    2 * pen,
		stats.AllIdle:      own - pen,
		stats.NoSwitchIdle: check,
	})
	if st := res.Procs[0]; st.WriteMisses != 1 || st.WriteOwnedHit != 1 {
		t.Errorf("short: WriteMisses %d, WriteOwnedHit %d; want 1 and 1", st.WriteMisses, st.WriteOwnedHit)
	}
	res = program(true)
	checkBuckets(t, res, 1+own+pen+200+1+own+5, map[stats.Bucket]sim.Time{
		stats.Busy:      207,
		stats.Switching: 2 * pen,
		stats.AllIdle:   own - pen + own,
	})
	if st := res.Procs[0]; st.WriteMisses != 2 || st.WriteOwnedHit != 0 {
		t.Errorf("blocking: WriteMisses %d, WriteOwnedHit %d; want 2 and 0", st.WriteMisses, st.WriteOwnedHit)
	}
}

// TestUncachedReadsPayEachTime: with CacheShared off, shared data is never
// cached, so a repeated read of one line pays the uncached latency every
// time: UncachedReadRemote (64 cycles) for a line homed on node 1 and
// UncachedReadLocal (20) for one on node 0. Each latency includes the
// 1-cycle issue, which is busy; the rest is read stall.
func TestUncachedReadsPayEachTime(t *testing.T) {
	lat := config.Default().Lat
	var local, remote mem.Addr
	res := run(t, 2, &app{
		cfg: func(c *config.Config) { c.CacheShared = false },
		setup: func(m *machine.Machine) {
			local = m.AllocOnNode(mem.LineSize, 0)
			remote = m.AllocOnNode(mem.LineSize, 1)
		},
		worker: func(e *cpu.Env, pid int) {
			if pid != 0 {
				return
			}
			e.Compute(5)
			e.Read(remote)
			e.Read(remote)
			e.Read(local)
			e.Read(local)
			e.Compute(5)
		},
	})
	rr, rl := sim.Time(lat.UncachedReadRemote), sim.Time(lat.UncachedReadLocal)
	checkBuckets(t, res, 10+2*rr+2*rl, map[stats.Bucket]sim.Time{stats.Busy: 14, stats.ReadStall: 2*(rr-1) + 2*(rl-1)})
	if st := res.Procs[0]; st.ReadMisses != 4 || st.ReadPrimaryHit != 0 || st.ReadSecHit != 0 {
		t.Errorf("ReadMisses %d, ReadPrimaryHit %d, ReadSecHit %d; want 4, 0 and 0",
			st.ReadMisses, st.ReadPrimaryHit, st.ReadSecHit)
	}
}

// TestWCLockWaitsForDrain: under WC a lock is a full fence. The remote
// write enters the write buffer after its issue cycle (cycle 6) and
// retires 64 cycles later (cycle 70); the lock, issued at cycle 7, waits
// in SyncStall for that drain and then for its own local acquire, which
// takes 18 cycles on an empty buffer.
func TestWCLockWaitsForDrain(t *testing.T) {
	var remote mem.Addr
	var lk *msync.Lock
	program := func(write bool) *machine.Result {
		return run(t, 2, &app{
			cfg: func(c *config.Config) { c.Model = config.WC },
			setup: func(m *machine.Machine) {
				remote = m.AllocOnNode(mem.LineSize, 1)
				lk = m.NewLockOnNode(0)
			},
			worker: func(e *cpu.Env, pid int) {
				if pid != 0 {
					return
				}
				e.Compute(5)
				if write {
					e.Write(remote)
				}
				e.Lock(lk)
				e.Compute(5)
			},
		})
	}
	checkBuckets(t, program(false), 29, map[stats.Bucket]sim.Time{stats.Busy: 11, stats.SyncStall: 18})
	checkBuckets(t, program(true), 93, map[stats.Bucket]sim.Time{stats.Busy: 12, stats.SyncStall: 70 - 7 + 18})
}

// TestPCUnlockContinues: under PC an unlock performs in program order
// behind the buffered writes, inside the write buffer, and the processor
// continues at once. Only the local lock acquire (18 cycles) stalls; the
// remote write and the unlock behind it retire after the process ends.
func TestPCUnlockContinues(t *testing.T) {
	var remote mem.Addr
	var lk *msync.Lock
	res := run(t, 2, &app{
		cfg: func(c *config.Config) { c.Model = config.PC },
		setup: func(m *machine.Machine) {
			remote = m.AllocOnNode(mem.LineSize, 1)
			lk = m.NewLockOnNode(0)
		},
		worker: func(e *cpu.Env, pid int) {
			if pid != 0 {
				return
			}
			e.Compute(5)
			e.Lock(lk)
			e.Write(remote)
			e.Unlock(lk)
			e.Compute(5)
		},
	})
	checkBuckets(t, res, 31, map[stats.Bucket]sim.Time{stats.Busy: 13, stats.SyncStall: 18})
}

// TestTwoContextsSwitchAndStall: with two contexts a read miss switches
// to the other context, at the switch penalty, and no cycle is a read
// stall. Context 0 misses at cycle 6 and switches to context 1, which
// ends at cycle 10; with no context ready the processor idles until the
// fill at 77 and switches back. The second miss, to a line that evicts
// the first from the primary cache, finds no other context ready: no
// switch, and idle from 82 to 153. The third read then finds its line in
// the secondary cache, a short fill (13 cycles after the issue) that
// stalls without switching.
func TestTwoContextsSwitchAndStall(t *testing.T) {
	var a mem.Addr
	def := config.Default()
	res := run(t, 2, &app{
		cfg:   func(c *config.Config) { c.Contexts = 2 },
		setup: func(m *machine.Machine) { a = m.AllocOnNode(2*def.PrimaryBytes, 1) },
		worker: func(e *cpu.Env, pid int) {
			if pid != 0 {
				return
			}
			e.Compute(5)
			e.Read(a)
			e.Read(a + mem.Addr(def.PrimaryBytes))
			e.Read(a)
		},
	})
	pen := sim.Time(def.SwitchPenalty)
	checkBuckets(t, res, 167, map[stats.Bucket]sim.Time{
		stats.Busy:         8,
		stats.Switching:    2 * pen,
		stats.AllIdle:      (77 - 10) + (153 - 82),
		stats.NoSwitchIdle: 13,
	})
	if st := res.Procs[0]; st.Switches != 2 || st.ReadSecHit != 1 {
		t.Errorf("Switches %d, ReadSecHit %d; want 2 and 1", st.Switches, st.ReadSecHit)
	}
}

// TestSpinSwitchHint: on one node with two contexts, a spin ends in a
// switch hint. Process 0 spins for 10 cycles and yields to process 1,
// which computes for 30 cycles, sets the flag and finishes; process 0
// then sees the flag without spinning again. Every cycle is busy or a
// switch: 10 + 30 busy and two switch penalties. Without the hint the
// spinner would never let process 1 run, and the watchdog would end the
// run.
func TestSpinSwitchHint(t *testing.T) {
	pen := sim.Time(config.Default().SwitchPenalty)
	flag := false
	res := run(t, 1, &app{
		cfg: func(c *config.Config) { c.Contexts, c.MaxCycles = 2, 10_000 },
		worker: func(e *cpu.Env, pid int) {
			if pid == 0 {
				for !flag {
					e.SpinWait(10)
				}
				return
			}
			e.Compute(30)
			flag = true
		},
	})
	checkBuckets(t, res, 40+2*pen, map[stats.Bucket]sim.Time{
		stats.Busy:      40,
		stats.Switching: 2 * pen,
	})
	if st := res.Procs[0]; st.Switches != 2 {
		t.Errorf("Switches = %d, want 2", st.Switches)
	}
}

// TestRCUnlockWaitsForDrainAndAcks: under RC an unlock is a buffered
// release. The processor continues at once, and the release store leaves
// the write buffer only after every earlier write has retired and every
// invalidation ack has arrived. A read of the lock line cannot bypass the
// buffered release, so its stall shows when the release retired. Process
// 0 computes to cycle 100 and takes a lock homed on its own node, a local
// ownership miss of SecCheckWrite 2 + BusHold 4 + MemHold 6 + WriteGrant 6
// = 18 cycles after the issue cycle. It may then write a line homed on
// node 1, which enters the write buffer at cycle 120, before it unlocks
// (the release enters one cycle later) and reads the lock line. The
// release is an owned hit (SecCheckWrite, 2 cycles), and the read then
// fills the primary from the secondary (SecLookup 7 + FillPrim 6 = 13).
// The write's request reaches the home's directory 35 cycles after it
// enters the buffer (SecCheckWrite, BusHold, a hop of NIHold 4 + Wire 15
// + NIHold 4 = 23, MemHold). If nobody shares the line, ownership comes
// back a hop and WriteGrant later, 64 cycles after entry (Table 1). If
// process 2 shares it, the home also sends it an invalidation, whose ack
// reaches process 0 a hop, InvalApply 4 and a hop later, 85 cycles after
// entry; the release waits for that ack.
func TestRCUnlockWaitsForDrainAndAcks(t *testing.T) {
	lat := config.Default().Lat
	check := sim.Time(lat.SecCheckWrite)
	own := check + sim.Time(lat.BusHold+lat.MemHold+lat.WriteGrant)
	hop := sim.Time(2*lat.NIHold + lat.Wire)
	atHome := check + sim.Time(lat.BusHold) + hop + sim.Time(lat.MemHold)
	grant := atHome + hop + sim.Time(lat.WriteGrant)
	ack := atHome + hop + sim.Time(lat.InvalApply) + hop
	fill := sim.Time(lat.SecLookup + lat.FillPrim)
	var x mem.Addr
	var lk *msync.Lock
	program := func(write, shared bool) *machine.Result {
		return run(t, 3, &app{
			cfg: func(c *config.Config) { c.Model = config.RC },
			setup: func(m *machine.Machine) {
				// One line into its page, x does not evict the lock line
				// from the secondary cache.
				x = m.AllocOnNode(2*mem.LineSize, 1) + mem.LineSize
				lk = m.NewLockOnNode(0)
			},
			worker: func(e *cpu.Env, pid int) {
				switch {
				case pid == 2 && shared:
					e.Read(x)
				case pid == 0:
					e.Compute(100)
					e.Lock(lk)
					if write {
						e.Write(x)
					}
					e.Unlock(lk)
					e.Read(lk.Addr())
					e.Compute(5)
				}
			},
		})
	}
	entry := 100 + 1 + own + 1 // the write enters the buffer; so does a release with no write
	checkBuckets(t, program(false, false), entry+check+1+fill+5, map[stats.Bucket]sim.Time{
		stats.Busy:      108,
		stats.ReadStall: check + fill,
		stats.SyncStall: own,
	})
	checkBuckets(t, program(true, false), entry+grant+check+1+fill+5, map[stats.Bucket]sim.Time{
		stats.Busy:      109,
		stats.ReadStall: grant + check - 1 + fill,
		stats.SyncStall: own,
	})
	checkBuckets(t, program(true, true), entry+ack+check+1+fill+5, map[stats.Bucket]sim.Time{
		stats.Busy:      109,
		stats.ReadStall: ack + check - 1 + fill,
		stats.SyncStall: own,
	})
}

// TestBarrierWaitsForLastArrival: a barrier arrival stalls until the last
// participant arrives and its release reaches the waiter. Two of three
// processes meet at a barrier whose counter and flag lines are homed on
// node 2. Process 0 arrives at cycle 6: its counter increment takes the
// uncached line in 64 cycles (Table 1), and it then fetches the flag
// line, all long before process 1 arrives at late+1. That increment finds
// the counter dirty at node 0: the home forwards the request (a hop of
// NIHold 4 + WireForward 3 + NIHold 4), the owner answers after BusHold 4
// and OwnerAccess 3 with a hop of NIHold 4 + Wire 15 + NIHold 4, so the
// write takes 82 cycles (Table 1). Being last, process 1 then writes the
// flag, which process 0 shares: the home takes the request 35 cycles
// later (SecCheckWrite 2, BusHold, a hop, MemHold 6), invalidates process
// 0's copy, and the grant, queued NIHold behind the invalidation at the
// home's network interface, arrives a hop and WriteGrant 6 later.
// Process 0's refetch then reads a line dirty at node 1 (89 cycles after
// the issue, Table 1's 90). Process 0 stalls from its arrival to that
// fill, and the stall grows cycle for cycle with process 1's lateness.
func TestBarrierWaitsForLastArrival(t *testing.T) {
	lat := config.Default().Lat
	hop := sim.Time(2*lat.NIHold + lat.Wire)
	owner := sim.Time(2*lat.NIHold+lat.WireForward+lat.BusHold+lat.OwnerAccess) + hop
	atHome := sim.Time(lat.SecCheckWrite+lat.BusHold) + hop + sim.Time(lat.MemHold)
	dirtyWrite := atHome + owner + sim.Time(lat.WriteGrant)
	flagGrant := atHome + sim.Time(lat.NIHold) + hop + sim.Time(lat.WriteGrant)
	dirtyRead := sim.Time(lat.SecLookup+lat.BusHold) + hop + sim.Time(lat.MemHold) + owner + sim.Time(lat.FillSec+lat.FillPrim)
	var b *msync.Barrier
	for _, late := range []sim.Time{200, 300} {
		res := run(t, 3, &app{
			setup: func(m *machine.Machine) {
				b = msync.NewBarrier(m.AllocOnNode(mem.LineSize, 2), m.AllocOnNode(mem.LineSize, 2), 2)
			},
			worker: func(e *cpu.Env, pid int) {
				switch pid {
				case 0:
					e.Compute(5)
					e.Barrier(b)
					e.Compute(5)
				case 1:
					e.Compute(int(late))
					e.Barrier(b)
				}
			},
		})
		released := late + 1 + dirtyWrite + flagGrant + dirtyRead
		checkBuckets(t, res, released+5, map[stats.Bucket]sim.Time{
			stats.Busy:      11,
			stats.SyncStall: released - 6,
		})
	}
}

// TestWCUnlockWaitsForDrainAndAcks: under WC an unlock is a
// synchronization access. The processor stalls until every earlier write
// has retired and every invalidation ack has arrived, and then until the
// release store itself retires. Process 0 computes to cycle 100 and takes
// a lock homed on its own node (WC fences an empty buffer at once): a
// local ownership miss of SecCheckWrite 2 + BusHold 4 + MemHold 6 +
// WriteGrant 6 = 18 cycles after the issue cycle. It may then write a
// line homed on node 1, which enters the write buffer at cycle 120, before
// it unlocks. The release store is an owned hit, SecCheckWrite (2 cycles)
// after the fence lifts. With no write the fence lifts when the unlock
// issues. The write's request reaches the home's directory 35 cycles
// after it enters the buffer (SecCheckWrite, BusHold, a hop of NIHold 4 +
// Wire 15 + NIHold 4 = 23, MemHold). If nobody shares the line, ownership
// comes back a hop and WriteGrant later, 64 cycles after entry (Table 1).
// If process 2 shares it, the home also sends it an invalidation, whose
// ack reaches process 0 a hop, InvalApply 4 and a hop later, 85 cycles
// after entry; the fence waits for that ack.
func TestWCUnlockWaitsForDrainAndAcks(t *testing.T) {
	lat := config.Default().Lat
	check := sim.Time(lat.SecCheckWrite)
	own := check + sim.Time(lat.BusHold+lat.MemHold+lat.WriteGrant)
	hop := sim.Time(2*lat.NIHold + lat.Wire)
	atHome := check + sim.Time(lat.BusHold) + hop + sim.Time(lat.MemHold)
	grant := atHome + hop + sim.Time(lat.WriteGrant)
	ack := atHome + hop + sim.Time(lat.InvalApply) + hop
	var x mem.Addr
	var lk *msync.Lock
	program := func(write, shared bool) *machine.Result {
		return run(t, 3, &app{
			cfg: func(c *config.Config) { c.Model = config.WC },
			setup: func(m *machine.Machine) {
				// One line into its page, x does not evict the lock line
				// from the secondary cache.
				x = m.AllocOnNode(2*mem.LineSize, 1) + mem.LineSize
				lk = m.NewLockOnNode(0)
			},
			worker: func(e *cpu.Env, pid int) {
				switch {
				case pid == 2 && shared:
					e.Read(x)
				case pid == 0:
					e.Compute(100)
					e.Lock(lk)
					if write {
						e.Write(x)
					}
					e.Unlock(lk)
					e.Compute(5)
				}
			},
		})
	}
	entry := 100 + 1 + own + 1 // the write enters the buffer; so does an unlock with no write
	checkBuckets(t, program(false, false), entry+check+5, map[stats.Bucket]sim.Time{
		stats.Busy:      107,
		stats.SyncStall: own + check,
	})
	checkBuckets(t, program(true, false), entry+grant+check+5, map[stats.Bucket]sim.Time{
		stats.Busy:      108,
		stats.SyncStall: own + grant - 1 + check,
	})
	checkBuckets(t, program(true, true), entry+ack+check+5, map[stats.Bucket]sim.Time{
		stats.Busy:      108,
		stats.SyncStall: own + ack - 1 + check,
	})
}

// TestWCUnlockFenceCoversSiblingWrites: with several contexts, the WC
// unlock's drain fence waits until the shared write buffer is empty,
// including writes another context buffers while the unlock waits; a
// release entry alone would wait only for the entries ahead of it. One
// node runs two contexts, and the lock, homed there, is held from the
// start. Process 0 writes x, which enters the buffer at cycle 1, and
// unlocks, blocking at cycle 2; the processor switches to process 1
// (SwitchPenalty 4), whose write of y enters the buffer at cycle 7, and
// process 1 ends. Each write is a local ownership miss that retires
// SecCheckWrite 2 + BusHold 4 + MemHold 6 + WriteGrant 6 = 18 cycles
// after it enters: x at 19, y at 25. The fence lifts when y retires, and
// the release store, another local ownership miss, completes 18 cycles
// later, at 43; the idle processor then switches back to process 0.
// Enqueued at the unlock instead, the release would follow only x and
// complete at 37.
func TestWCUnlockFenceCoversSiblingWrites(t *testing.T) {
	def := config.Default()
	lat := def.Lat
	pen := sim.Time(def.SwitchPenalty)
	own := sim.Time(lat.SecCheckWrite + lat.BusHold + lat.MemHold + lat.WriteGrant)
	var x, y mem.Addr
	var lk *msync.Lock
	var resumed sim.Time
	res := run(t, 1, &app{
		cfg: func(c *config.Config) { c.Model, c.Contexts = config.WC, 2 },
		setup: func(m *machine.Machine) {
			x = m.AllocOnNode(2*mem.LineSize, 0) + mem.LineSize
			y = m.AllocOnNode(4*mem.LineSize, 0) + 2*mem.LineSize
			lk = m.NewLockOnNode(0)
			lk.SetHeld()
		},
		worker: func(e *cpu.Env, pid int) {
			switch pid {
			case 0:
				e.Write(x)
				e.Unlock(lk)
				resumed = e.Now()
			case 1:
				e.Write(y)
			}
		},
	})
	yRetired := 2 + pen + 1 + own
	released := yRetired + own
	if resumed != released+pen {
		t.Errorf("process 0 resumed at %d, want %d: the release completes %d cycles after y retires at %d",
			resumed, released+pen, own, yRetired)
	}
	checkBuckets(t, res, released+pen, map[stats.Bucket]sim.Time{
		stats.Busy:      3,
		stats.Switching: 2 * pen,
		stats.AllIdle:   released + pen - 3 - 2*pen,
	})
}

// TestPrimaryPortLockout: a primary-cache fill holds the primary port for
// its last FillPrim (6) cycles, and a read issued meanwhile waits for the
// port. Each program below issues a read 3 cycles before the port frees,
// so the lockout is 3 cycles, and its bucket names the fill's owner.
//
// A prefetch's fill: process 0 prefetches a line homed on node 1. The
// issue is PrefetchIssueCycles (2) of overhead; the buffer checks the
// secondary (SecCheckWrite 2) and sends the request, which crosses the bus
// (BusHold 4), a hop (NIHold 4 + Wire 15 + NIHold 4 = 23), the home
// (MemHold 6) and a hop back and fills the secondary (FillSec 2): the port
// is held from cycle 62 to 68. Computing to 65, the read of that line
// waits 3 cycles of prefetch overhead, then hits the primary.
//
// Another context's fill: processor 0 runs process 0 and process 2 as two
// contexts. Process 0 misses on a line homed on node 1 at cycle 1: a
// remote read of 72 cycles (Table 1), so its fill holds the port from 66
// to 72. The processor switches to process 2 (SwitchPenalty 4), whose read
// of a line homed on node 0 misses too (26 cycles, Table 1) and leaves the
// processor idle from 6 to 31. Computing to 69, process 2 reads that line
// again: 3 cycles of no-switch idle, then a primary hit. Process 2 ends at
// 78 and the processor switches back to process 0, whose read is done.
//
// The context's own lock line, on one context: under RC process 0 takes a
// lock homed on its own node (18 cycles, as in
// TestRCUnlockWaitsForDrainAndAcks), writes a line homed on node 1 (it
// enters the buffer at 120 and retires 64 cycles later) and unlocks; the
// release retires behind the write, after its ownership check
// (SecCheckWrite 2, the lock line is dirty). Meanwhile process 0 locks
// again: the lock is still held, so it refetches the lock line from its
// secondary (SecLookup 7, then FillPrim 6 holding the port) and waits. The
// retired release hands it the lock after one more ownership check, at
// 188, and its read of another line homed on node 1 issues while the
// refetch still holds the port: 3 cycles of read stall, then a remote
// miss.
func TestPrimaryPortLockout(t *testing.T) {
	def := config.Default()
	lat := def.Lat
	pen := sim.Time(def.SwitchPenalty)
	check := sim.Time(lat.SecCheckWrite)
	fill := sim.Time(lat.FillPrim)
	hop := sim.Time(2*lat.NIHold + lat.Wire)
	local := 1 + sim.Time(lat.SecLookup+lat.BusHold+lat.MemHold+lat.FillSec) + fill
	remote := local + 2*hop
	const lockout = 3

	var a, b, x, y mem.Addr
	pfHeld := sim.Time(def.PrefetchIssueCycles) + check + sim.Time(lat.BusHold+lat.MemHold+lat.FillSec) + 2*hop
	res := run(t, 2, &app{
		setup: func(m *machine.Machine) { a = m.AllocOnNode(mem.LineSize, 1) },
		worker: func(e *cpu.Env, pid int) {
			if pid != 0 {
				return
			}
			e.Prefetch(a)
			e.Compute(int(pfHeld+fill-lockout) - def.PrefetchIssueCycles)
			e.Read(a)
			e.Compute(5)
		},
	})
	checkBuckets(t, res, pfHeld+fill+1+5, map[stats.Bucket]sim.Time{
		stats.Busy:             pfHeld + fill - lockout - sim.Time(def.PrefetchIssueCycles) + 1 + 5,
		stats.PrefetchOverhead: sim.Time(def.PrefetchIssueCycles) + lockout,
	})
	if st := res.Procs[0]; st.ReadPrimaryHit != 1 || st.Prefetches != 1 || st.PrefetchUseless != 0 {
		t.Errorf("prefetch: ReadPrimaryHit %d, Prefetches %d, PrefetchUseless %d; want 1, 1 and 0",
			st.ReadPrimaryHit, st.Prefetches, st.PrefetchUseless)
	}

	res = run(t, 2, &app{
		cfg: func(c *config.Config) { c.Contexts = 2 },
		setup: func(m *machine.Machine) {
			a = m.AllocOnNode(mem.LineSize, 1)
			// One line into its page, b does not share a cache set with a.
			b = m.AllocOnNode(2*mem.LineSize, 0) + mem.LineSize
		},
		worker: func(e *cpu.Env, pid int) {
			switch pid {
			case 0:
				e.Read(a)
				e.Compute(5)
			case 2:
				e.Read(b)
				e.Compute(int(remote - lockout - (1 + pen + local)))
				e.Read(b)
				e.Compute(5)
			}
		},
	})
	checkBuckets(t, res, remote+1+5+pen+5, map[stats.Bucket]sim.Time{
		stats.Busy:         1 + 1 + (remote - lockout - (1 + pen + local)) + 1 + 5 + 5,
		stats.Switching:    2 * pen,
		stats.AllIdle:      local - 1,
		stats.NoSwitchIdle: lockout,
	})
	if st := res.Procs[0]; st.ReadMisses != 2 || st.ReadPrimaryHit != 1 {
		t.Errorf("two contexts: ReadMisses %d, ReadPrimaryHit %d; want 2 and 1", st.ReadMisses, st.ReadPrimaryHit)
	}

	own := check + sim.Time(lat.BusHold+lat.MemHold+lat.WriteGrant)
	grant := check + sim.Time(lat.BusHold) + hop + sim.Time(lat.MemHold) + hop + sim.Time(lat.WriteGrant)
	entry := 100 + 1 + own + 1 // the write enters the buffer
	granted := entry + grant + 2*check
	relock := granted + lockout - fill - sim.Time(lat.SecLookup) - 1 // the second Lock's issue cycle
	var lk *msync.Lock
	res = run(t, 2, &app{
		cfg: func(c *config.Config) { c.Model = config.RC },
		setup: func(m *machine.Machine) {
			// x and y do not share a cache set with the lock line.
			base := m.AllocOnNode(3*mem.LineSize, 1)
			x, y = base+mem.LineSize, base+2*mem.LineSize
			lk = m.NewLockOnNode(0)
		},
		worker: func(e *cpu.Env, pid int) {
			if pid != 0 {
				return
			}
			e.Compute(100)
			e.Lock(lk)
			e.Write(x)
			e.Unlock(lk)
			e.Compute(int(relock - (entry + 1)))
			e.Lock(lk)
			e.Read(y)
			e.Compute(5)
		},
	})
	checkBuckets(t, res, granted+lockout+remote+5, map[stats.Bucket]sim.Time{
		stats.Busy:      100 + 1 + 1 + 1 + (relock - (entry + 1)) + 1 + 1 + 5,
		stats.SyncStall: own + granted - (relock + 1),
		stats.ReadStall: lockout + remote - 1,
	})
}
