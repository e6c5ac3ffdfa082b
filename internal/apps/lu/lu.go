// Package lu is the LU benchmark: LU-decomposition of a dense matrix
// without pivoting, the second of the paper's three applications.
//
// The matrix is stored by column. Working from left to right, a column is
// used to modify all columns to its right; once a column has been modified
// by all columns to its left, its owner normalizes it and releases any
// processors waiting for it. Columns are statically assigned to the
// processes in an interleaved fashion and the memory for owned columns is
// allocated from shared memory in the owner's node, as in the paper.
//
// Synchronization is per-column: every column has a lock that is created
// held and released by the producer when the column is ready; consumers do
// a lock/unlock pass-through to wait (one lock acquisition per consumer
// per column, matching the paper's ~16 locks per column on 16 processors).
package lu

import (
	"fmt"
	"math/rand"

	"latsim/internal/cpu"
	"latsim/internal/machine"
	"latsim/internal/mem"
	"latsim/internal/msync"
)

// Params configures an LU run. The paper factors a 200x200 matrix.
type Params struct {
	N        int
	Prefetch bool
	Seed     int64
	// PrefetchDistance is how many cache lines ahead the pivot/owned
	// column prefetches run (the paper distributes prefetches through
	// the computation to avoid hot-spotting).
	PrefetchDistance int
}

// Default returns the paper's configuration.
func Default() Params { return Params{N: 200, Seed: 1991, PrefetchDistance: 4} }

// Scaled returns a reduced problem for benchmarks.
func Scaled(n int) Params {
	p := Default()
	p.N = n
	return p
}

// elemBytes is the storage per matrix element (float64, two per line).
const elemBytes = 8

// App implements machine.App for LU.
type App struct {
	p Params

	a        [][]float64 // columns: a[j][i]
	colBase  []mem.Addr
	colLocks []*msync.Lock
	produced []bool // native ready flags (guarded by the column locks)
	barrier  *msync.Barrier
	nprocs   int

	orig [][]float64 // copy of the input matrix for verification
}

// New creates an LU instance.
func New(p Params) *App {
	if p.N < 2 {
		panic(fmt.Sprintf("lu: bad size %d", p.N))
	}
	if p.PrefetchDistance <= 0 {
		p.PrefetchDistance = 4
	}
	return &App{p: p}
}

// Name implements machine.App.
func (a *App) Name() string { return "LU" }

// Params returns the run parameters.
func (a *App) Params() Params { return a.p }

// owner returns the process owning column j (interleaved assignment).
func (a *App) owner(j int) int { return j % a.nprocs }

// addr returns the simulated address of element (i, j).
func (a *App) addr(i, j int) mem.Addr {
	return a.colBase[j] + mem.Addr(i*elemBytes)
}

// Setup allocates the matrix column-by-column on the owners' nodes and
// fills it with a well-conditioned random matrix (diagonally dominant so
// factoring without pivoting is stable).
func (a *App) Setup(m *machine.Machine) error {
	a.nprocs = m.Config().TotalProcesses()
	n := a.p.N
	rng := rand.New(rand.NewSource(a.p.Seed))

	a.a = make([][]float64, n)
	a.orig = make([][]float64, n)
	a.colBase = make([]mem.Addr, n)
	a.colLocks = make([]*msync.Lock, n)
	a.produced = make([]bool, n)
	for j := 0; j < n; j++ {
		col := make([]float64, n)
		for i := 0; i < n; i++ {
			col[i] = rng.Float64()*2 - 1
			if i == j {
				col[i] += float64(n) // diagonal dominance
			}
		}
		a.a[j] = col
		a.orig[j] = append([]float64(nil), col...)
		node := m.NodeOfProcess(a.owner(j)) % m.Config().Procs
		// Columns are padded by a varying number of lines so that the
		// pivot and owned columns of an (k, j) pair do not map to the
		// same direct-mapped cache sets systematically (the usual
		// array-stagger trick; without it many column pairs conflict on
		// every access and the pivot column can never be retained).
		stagger := (j % 7) * mem.LineSize
		a.colBase[j] = m.AllocOnNode(n*elemBytes+stagger, node)
		lk := m.NewLockOnNode(node)
		lk.SetHeld() // created held; released when the column is produced
		a.colLocks[j] = lk
	}
	a.barrier = m.NewBarrier(a.nprocs)
	return nil
}

// Worker is the per-process LU pipeline.
func (a *App) Worker(e *cpu.Env, pid, nprocs int) {
	n := a.p.N
	e.Barrier(a.barrier)

	// The owner of column 0 normalizes and releases it first.
	if a.owner(0) == pid {
		a.normalize(e, 0)
		a.produced[0] = true
		e.Unlock(a.colLocks[0])
	}

	for k := 0; k < n-1; k++ {
		// Wait for column k to be produced (skip if we produced it).
		if a.owner(k) != pid {
			e.Lock(a.colLocks[k])
			e.Unlock(a.colLocks[k])
			if !a.produced[k] {
				panic(fmt.Sprintf("lu: column %d lock released before production", k))
			}
		}
		// Apply pivot column k to every owned column j > k.
		for j := k + 1; j < n; j++ {
			if a.owner(j) != pid {
				continue
			}
			a.apply(e, k, j)
			if j == k+1 {
				// Column k+1 is now fully updated: normalize and
				// release it.
				a.normalize(e, j)
				a.produced[j] = true
				e.Unlock(a.colLocks[j])
			}
		}
	}
	e.Barrier(a.barrier)
}

// apply subtracts a[k][j] * pivotcol(k) from column j, the O(n) inner
// kernel (two reads and one write per element, as in the paper's 2:1
// shared read:write ratio).
func (a *App) apply(e *cpu.Env, k, j int) {
	n := a.p.N
	pcol := a.a[k]
	col := a.a[j]

	// A region (cpu.Env.Queue): the native code below writes only this
	// process's own column j, which no other process reads before its
	// lock is released, and reads pivot column k, final since its lock
	// was released.
	e.Queue()
	e.Read(a.addr(k, j)) // the multiplier element a[k][j]
	mult := col[k]
	e.Compute(4)

	pf := a.p.Prefetch
	dist := a.p.PrefetchDistance * (mem.LineSize / elemBytes)
	if pf {
		// Prefetch the first lines of both columns: pivot read-shared,
		// owned read-exclusive (it will be modified).
		e.PFCompute(2)
		first := min(n, k+1+dist)
		e.PrefetchRange(a.addr(k+1, k), (first-k-1)*elemBytes, false)
		e.PrefetchRange(a.addr(k+1, j), (first-k-1)*elemBytes, true)
	}
	for i := k + 1; i < n; i++ {
		if pf && i+dist < n && (i-k-1)%(mem.LineSize/elemBytes) == 0 {
			// Distribute prefetches through the computation rather
			// than bursting (avoids hot-spotting, per the paper).
			e.PFCompute(1)
			e.Prefetch(a.addr(i+dist, k))
			e.PrefetchExcl(a.addr(i+dist, j))
		}
		e.Read(a.addr(i, k))
		e.Compute(3)
		e.Read(a.addr(i, j))
		col[i] -= mult * pcol[i]
		e.Write(a.addr(i, j))
		e.Compute(4)
	}
	e.Wait()
}

// normalize divides column j below the diagonal by its pivot element,
// storing the multipliers in place.
func (a *App) normalize(e *cpu.Env, j int) {
	n := a.p.N
	col := a.a[j]
	// A region: the native code reads and writes only this process's own
	// column j, which no other process reads before its lock is released.
	e.Queue()
	e.Read(a.addr(j, j))
	piv := col[j]
	e.Compute(8)
	for i := j + 1; i < n; i++ {
		e.Read(a.addr(i, j))
		col[i] /= piv
		e.Write(a.addr(i, j))
		e.Compute(4)
	}
	e.Wait()
}

// Verify checks L*U against the original matrix; returns the max absolute
// residual element.
func (a *App) Verify() float64 {
	n := a.p.N
	var maxErr float64
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			// (L*U)[i][j] = sum_m L[i][m] * U[m][j], with L unit lower
			// triangular (stored below diagonal) and U upper.
			var sum float64
			for m := 0; m <= min(i, j); m++ {
				var l float64
				if m == i {
					l = 1
				} else {
					l = a.a[m][i] // multiplier stored in column m, row i
				}
				u := a.a[j][m]
				sum += l * u
			}
			d := sum - a.orig[j][i]
			if d < 0 {
				d = -d
			}
			if d > maxErr {
				maxErr = d
			}
		}
	}
	return maxErr
}

var _ machine.App = (*App)(nil)
