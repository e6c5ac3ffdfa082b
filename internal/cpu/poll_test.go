package cpu_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"latsim/internal/config"
	"latsim/internal/cpu"
	"latsim/internal/machine"
	"latsim/internal/mem"
	"latsim/internal/msync"
)

// TestPollMatchesPlainLoop: a loop run as a Poll step submits the same
// operations at the same cycles as the loop written plainly, and the runs
// agree. Process 0 reads a line until process 1 has written it and set a
// flag, spinning between reads; the plain loop reads inside a region, so
// that its read and compute are submitted together, as the step queues
// them.
func TestPollMatchesPlainLoop(t *testing.T) {
	var line mem.Addr
	program := func(polled bool) ([]submission, *machine.Result) {
		flag := false
		return traced(t, 2, &app{
			cfg:   func(c *config.Config) { c.MaxCycles = 1_000_000 }, // ends a loop that never sees the flag
			setup: func(m *machine.Machine) { line = m.AllocOnNode(mem.LineSize, 1) },
			worker: func(e *cpu.Env, pid int) {
				if pid == 1 {
					e.Compute(300)
					e.Write(line)
					flag = true
					return
				}
				if polled {
					read := false
					e.Poll(func() bool {
						if read {
							if flag {
								return true
							}
							e.SpinWait(6)
						} else {
							e.Read(line)
							e.Compute(4)
						}
						read = !read
						return false
					})
				} else {
					for {
						e.Queue()
						e.Read(line)
						e.Compute(4)
						e.Wait()
						if flag {
							break
						}
						e.SpinWait(6)
					}
				}
				e.Compute(10)
			},
		})
	}
	plainSubs, plain := program(false)
	polledSubs, polled := program(true)
	if len(plainSubs) < 10 {
		t.Fatalf("the loop submitted %d operations; want several rounds", len(plainSubs))
	}
	if !reflect.DeepEqual(plainSubs, polledSubs) {
		t.Errorf("submissions differ:\nplain  %v\npolled %v", plainSubs, polledSubs)
	}
	if plain.Elapsed != polled.Elapsed || !reflect.DeepEqual(plain.Procs, polled.Procs) {
		t.Errorf("Elapsed %d vs %d, procs %+v vs %+v", plain.Elapsed, polled.Elapsed, plain.Procs[0], polled.Procs[0])
	}
}

// TestPollSpinLetsSiblingRun: on a 2-context processor, a SpinWait that a
// step queues behind a read ends in the switch hint, so the sibling
// context runs exactly as it does beside the plain spin. Process 0 spins
// on a line of its own node until process 2, its sibling on node 0, has
// read five remote lines; each of the sibling's misses switches to the
// spinner, and each spin switches back. The sibling's operations are
// submitted at the same cycles, and the two runs agree.
func TestPollSpinLetsSiblingRun(t *testing.T) {
	var line, remote mem.Addr
	program := func(polled bool) ([]submission, *machine.Result) {
		flag := false
		return traced(t, 2, &app{
			// The watchdog ends a run whose spinner starves its sibling.
			cfg: func(c *config.Config) { c.Contexts, c.MaxCycles = 2, 1_000_000 },
			setup: func(m *machine.Machine) {
				line = m.AllocOnNode(mem.LineSize, 0)
				remote = m.AllocOnNode(5*mem.LineSize, 1)
			},
			worker: func(e *cpu.Env, pid int) {
				switch pid {
				case 0:
					if polled {
						e.Poll(func() bool {
							if flag {
								return true
							}
							e.Read(line)
							e.SpinWait(10)
							return false
						})
					} else {
						for !flag {
							e.Read(line)
							e.SpinWait(10)
						}
					}
					e.Compute(5)
				case 2:
					for i := 0; i < 5; i++ {
						e.Read(remote + mem.Addr(i*mem.LineSize))
						e.Compute(20)
					}
					flag = true
				}
			},
		})
	}
	plainSubs, plain := program(false)
	polledSubs, polled := program(true)
	sibling := func(subs []submission) (own []cpu.TraceKind, sib []submission) {
		for _, s := range subs {
			if s.pid == 2 {
				sib = append(sib, s)
			} else {
				own = append(own, s.kind)
			}
		}
		return own, sib
	}
	plainOwn, plainSib := sibling(plainSubs)
	polledOwn, polledSib := sibling(polledSubs)
	if !reflect.DeepEqual(plainOwn, polledOwn) {
		t.Errorf("spinner's operations: plain %v, polled %v", plainOwn, polledOwn)
	}
	if !reflect.DeepEqual(plainSib, polledSib) {
		t.Errorf("sibling's submissions: plain %v, polled %v", plainSib, polledSib)
	}
	if plain.Elapsed != polled.Elapsed || !reflect.DeepEqual(plain.Procs, polled.Procs) {
		t.Errorf("Elapsed %d vs %d, procs %+v vs %+v", plain.Elapsed, polled.Elapsed, plain.Procs[0], polled.Procs[0])
	}
	if polled.Procs[0].Switches < 10 || len(polledOwn) < 10 {
		t.Errorf("%d switches, %d spinner operations; want the contexts to alternate over several spins",
			polled.Procs[0].Switches, len(polledOwn))
	}
}

// TestPollStepMisuse: inside a step, each call that would yield on the
// simulator's goroutine panics naming the call, and so do a 17th queued
// operation and a step that returns false with nothing queued. Each is
// checked in the step's first call, on the process's goroutine, and in
// its second, on the simulator's.
func TestPollStepMisuse(t *testing.T) {
	var lk *msync.Lock
	var bar *msync.Barrier
	for _, tc := range []struct {
		want string
		call func(e *cpu.Env)
	}{
		{"Lock inside a Poll step", func(e *cpu.Env) { e.Lock(lk) }},
		{"Unlock inside a Poll step", func(e *cpu.Env) { e.Unlock(lk) }},
		{"Barrier inside a Poll step", func(e *cpu.Env) { e.Barrier(bar) }},
		{"Now inside a Poll step", func(e *cpu.Env) { e.Now() }},
		{"Queue inside a Poll step", func(e *cpu.Env) { e.Queue() }},
		{"Wait inside a Poll step", func(e *cpu.Env) { e.Wait() }},
		{"Poll inside a Poll step", func(e *cpu.Env) { e.Poll(func() bool { return true }) }},
		{fmt.Sprintf("queued more than %d operations", cpu.QueueCap), func(e *cpu.Env) {
			for i := 0; i <= cpu.QueueCap; i++ {
				e.Compute(1)
			}
		}},
		{"returned false with nothing queued", func(e *cpu.Env) {}},
	} {
		for _, call := range []int{1, 2} {
			got := panicValue(func() {
				run(t, 1, &app{
					setup: func(m *machine.Machine) {
						lk = m.NewLock()
						bar = m.NewBarrier(1)
					},
					worker: func(e *cpu.Env, pid int) {
						calls := 0
						e.Poll(func() bool {
							if calls++; calls < call {
								e.Compute(1)
								return false
							}
							tc.call(e)
							return false
						})
					},
				})
			})
			if !strings.Contains(got, tc.want) {
				t.Errorf("call %d: panic %q, want one saying %q", call, got, tc.want)
			}
		}
	}
}

// panicValue runs f and returns what it panicked with, or "" if it did
// not panic.
func panicValue(f func()) (v string) {
	defer func() {
		if r := recover(); r != nil {
			v = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}
