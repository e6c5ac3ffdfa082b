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

// issueTimes runs worker on a 2-processor machine and returns, per
// operation process 0 submits, the simulated time its trace hook ran.
func issueTimes(t *testing.T, setup func(m *machine.Machine), worker func(e *cpu.Env, pid int)) ([]cpu.TraceKind, []sim.Time, *machine.Result) {
	t.Helper()
	var kinds []cpu.TraceKind
	var times []sim.Time
	res := run(t, 2, &app{
		setup: func(m *machine.Machine) {
			if setup != nil {
				setup(m)
			}
			m.Processors()[0].SetTrace(func(pid int, k cpu.TraceKind, _ mem.Addr, _ int, _ *msync.Lock, _ *msync.Barrier) {
				kinds = append(kinds, k)
				times = append(times, m.Kernel().Now())
			})
		},
		worker: func(e *cpu.Env, pid int) {
			if pid == 0 {
				worker(e, pid)
			}
		},
	})
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
