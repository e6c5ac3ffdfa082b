package main

import (
	"sync"
	"time"
)

// Calibration. On a shared host the speed of this kind of code drifts by
// tens of percent over minutes as other tenants load the machine: the
// same iteration took 2.1 s in one run and 3.3 s in another. A fixed
// synthetic load, shaped like the simulator's hot loop and timed right
// before and after every iteration, drifts with it. Dividing each
// timing by the slowdown measured around it removes most of the drift.
// The load is the benchmark's own code, so a change to the simulator
// does not move it.

// calRef is the calibration's median duration on the reference box
// (2-core Xeon VM, Go 1.24), for one copy of the load and for two at
// once, so scaled timings read as that box's host seconds.
var calRef = [sweepWorkers + 1]time.Duration{1: 40 * time.Millisecond, 2: 70 * time.Millisecond}

const (
	calRounds = 60_000
	calTable  = 1 << 19 // 4 MB of uint64, larger than L2
	calHeap   = 64
)

// calMem holds one table per concurrent copy of the load. It is static,
// so it stays out of the live heap the benchmark measures.
var calMem [sweepWorkers][calTable]uint64

// slowdown runs par copies of the load at once, one per simulation the
// workload runs in parallel, and returns how much longer they took than
// on the reference box.
func slowdown(par int) float64 {
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < par; i++ {
		wg.Add(1)
		go func(mem *[calTable]uint64) {
			defer wg.Done()
			calLoad(mem)
		}(&calMem[i])
	}
	wg.Wait()
	return float64(time.Since(start)) / float64(calRef[par])
}

// calLoad is calRounds handoffs between two goroutines over unbuffered
// channels (the coroutine pattern), each around a push and a pop through
// a 4-ary heap and a random update of a table larger than L2.
func calLoad(mem *[calTable]uint64) {
	resume, yield := make(chan struct{}), make(chan bool)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range resume {
			yield <- true
		}
	}()
	h := make([]uint64, 0, calHeap+1)
	for i := 0; i < calHeap; i++ {
		h = heapPush(h, uint64(i*7919%251))
	}
	x := uint64(1)
	for i := 0; i < calRounds; i++ {
		resume <- struct{}{}
		<-yield
		var top uint64
		h, top = heapPop(h)
		x = x*6364136223846793005 + 1442695040888963407
		h = heapPush(h, top+1+x>>59)
		mem[x>>45&(calTable-1)] += top
	}
	close(resume)
	<-done
}

func heapPush(h []uint64, v uint64) []uint64 {
	h = append(h, v)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if h[p] <= v {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = v
	return h
}

func heapPop(h []uint64) ([]uint64, uint64) {
	top, last := h[0], h[len(h)-1]
	h = h[:len(h)-1]
	n, i := len(h), 0
	for n > 0 {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		for j := c + 1; j < c+4 && j < n; j++ {
			if h[j] < h[m] {
				m = j
			}
		}
		if h[m] >= last {
			break
		}
		h[i] = h[m]
		i = m
	}
	if n > 0 {
		h[i] = last
	}
	return h, top
}
