// Package mp3d is the MP3D benchmark: a 3-dimensional particle-based
// rarefied-fluid-flow simulator (hypersonic wind tunnel), the first of the
// paper's three applications.
//
// The primary data objects are the particles (air molecules) and the space
// cells (the physical space, boundary conditions, and the flying object).
// Each time step, every particle is moved according to its velocity;
// particles close to each other may collide based on a probabilistic
// model, and collisions with the object and the boundaries are modeled.
//
// Parallelization follows the paper: particles are statically divided
// equally among the processes and allocated from shared memory local to
// each process's node to minimize miss penalties; space-cell memory is
// distributed uniformly. Synchronization is barrier-only.
package mp3d

import (
	"fmt"
	"math/rand"

	"latsim/internal/cpu"
	"latsim/internal/machine"
	"latsim/internal/mem"
	"latsim/internal/msync"
)

// Params configures an MP3D run. The paper's experiments use 10,000
// particles, a 14x24x7 space array, and 5 time steps.
type Params struct {
	Particles  int
	NX, NY, NZ int
	Steps      int
	Prefetch   bool
	Seed       int64
}

// Default returns the paper's configuration.
func Default() Params {
	return Params{Particles: 10000, NX: 14, NY: 24, NZ: 7, Steps: 5, Seed: 1991}
}

// Scaled returns a reduced configuration with the same structure (for
// benchmarks), keeping the particle:cell ratio of the paper.
func Scaled(particles, steps int) Params {
	p := Default()
	p.Particles = particles
	p.Steps = steps
	return p
}

const (
	// particleBytes is the size of one particle record: position (3),
	// velocity (3), energy, cell index, and flags — nine 32-bit words.
	particleBytes = 36
	// cellBytes is one space-cell record: occupancy count, last-occupant
	// id, collision statistics, boundary flags — six 32-bit words.
	cellBytes = 24
)

// particle is the native state of one particle.
type particle struct {
	x, y, z    float64
	vx, vy, vz float64
	energy     float64
	cell       int
}

// cell is the native state of one space cell.
type cell struct {
	count      int // occupancy this step
	lastPart   int // last particle seen in this cell this step (collision partner)
	collisions int
	isObject   bool
}

// App implements machine.App for MP3D.
type App struct {
	p Params

	// Native state.
	parts []particle
	cells []cell

	// Simulated addresses.
	partBase []mem.Addr // per process: base of its particle block
	cellBase mem.Addr
	globals  mem.Addr // boundary conditions, object geometry, step stats

	bar *msync.Barrier

	nprocs  int
	perProc int
}

// New creates an MP3D instance.
func New(p Params) *App {
	if p.Particles <= 0 || p.Steps <= 0 || p.NX <= 0 || p.NY <= 0 || p.NZ <= 0 {
		panic(fmt.Sprintf("mp3d: bad params %+v", p))
	}
	return &App{p: p}
}

// Name implements machine.App.
func (a *App) Name() string { return "MP3D" }

// Params returns the run parameters.
func (a *App) Params() Params { return a.p }

// Setup allocates particles (node-local per process), cells (round-robin)
// and globals, and initializes particle positions/velocities.
func (a *App) Setup(m *machine.Machine) error {
	cfg := m.Config()
	a.nprocs = cfg.TotalProcesses()
	if a.p.Particles < a.nprocs {
		return fmt.Errorf("mp3d: %d particles cannot be split over %d processes", a.p.Particles, a.nprocs)
	}
	a.perProc = a.p.Particles / a.nprocs
	total := a.perProc * a.nprocs // drop the remainder, like static division

	a.parts = make([]particle, total)
	ncells := a.p.NX * a.p.NY * a.p.NZ
	a.cells = make([]cell, ncells)

	// Particle blocks: allocated from the shared memory local to the
	// owning process's node.
	a.partBase = make([]mem.Addr, a.nprocs)
	for pid := 0; pid < a.nprocs; pid++ {
		a.partBase[pid] = m.AllocOnNode(a.perProc*particleBytes, m.NodeOfProcess(pid))
	}
	// Space cells: distributed round-robin across nodes.
	a.cellBase = m.Alloc(ncells * cellBytes)
	a.globals = m.Alloc(4 * mem.LineSize)
	a.bar = m.NewBarrier(a.nprocs)

	rng := rand.New(rand.NewSource(a.p.Seed))
	for i := range a.parts {
		pt := &a.parts[i]
		pt.x = rng.Float64() * float64(a.p.NX)
		pt.y = rng.Float64() * float64(a.p.NY)
		pt.z = rng.Float64() * float64(a.p.NZ)
		pt.vx = rng.NormFloat64() + 2.0 // free-stream velocity in +x
		pt.vy = rng.NormFloat64() * 0.5
		pt.vz = rng.NormFloat64() * 0.5
		pt.energy = 0.5 * (pt.vx*pt.vx + pt.vy*pt.vy + pt.vz*pt.vz)
		pt.cell = a.cellIndex(pt.x, pt.y, pt.z)
	}
	// A wedge-shaped object in the middle of the wind tunnel.
	for ix := a.p.NX / 3; ix < a.p.NX/2; ix++ {
		for iy := a.p.NY / 3; iy < 2*a.p.NY/3; iy++ {
			for iz := 0; iz < a.p.NZ/2; iz++ {
				a.cells[a.idx(ix, iy, iz)].isObject = true
			}
		}
	}
	return nil
}

func (a *App) idx(ix, iy, iz int) int {
	return (ix*a.p.NY+iy)*a.p.NZ + iz
}

func (a *App) cellIndex(x, y, z float64) int {
	clamp := func(v float64, n int) int {
		i := int(v)
		if i < 0 {
			i = 0
		}
		if i >= n {
			i = n - 1
		}
		return i
	}
	return a.idx(clamp(x, a.p.NX), clamp(y, a.p.NY), clamp(z, a.p.NZ))
}

// Address helpers: field-granularity references into the records.

func (a *App) partAddr(id, field int) mem.Addr {
	pid := id / a.perProc
	off := id % a.perProc
	return a.partBase[pid] + mem.Addr(off*particleBytes+field*4)
}

func (a *App) cellAddr(ci, field int) mem.Addr {
	return a.cellBase + mem.Addr(ci*cellBytes+field*4)
}

// Worker runs one process: move its particles each step, with barriers
// between the phases of each step.
func (a *App) Worker(e *cpu.Env, pid, nprocs int) {
	lo := pid * a.perProc
	hi := lo + a.perProc
	rng := rand.New(rand.NewSource(a.p.Seed*7919 + int64(pid)))

	// Initialization barrier pair (processes load boundary conditions).
	e.ReadRange(a.globals, 2*mem.LineSize)
	e.Compute(40)
	e.Barrier(a.bar)
	e.Barrier(a.bar)

	for step := 0; step < a.p.Steps; step++ {
		// Phase 1: move + collide each owned particle.
		for i := lo; i < hi; i++ {
			if a.p.Prefetch {
				a.prefetchAhead(e, i, hi)
			}
			a.moveParticle(e, i, rng)
		}
		e.Barrier(a.bar)

		// Phase 2: per-cell update (owned slice of cells): collision
		// statistics and occupancy scaling.
		a.cellPhase(e, pid, nprocs)
		e.Barrier(a.bar)

		// Phase 3: boundary exchange — particles that crossed the
		// domain get re-injected (touch the globals + their records).
		a.boundaryPhase(e, pid, rng, lo, hi)
		e.Barrier(a.bar)

		// Phase 4: global statistics reduction (energy, momentum).
		e.ReadRange(a.globals, mem.LineSize)
		e.Compute(60)
		e.WriteRange(a.globals+mem.Addr(2*mem.LineSize), mem.LineSize)
		e.Barrier(a.bar)

		// Phase 5: reset cell occupancy for the next step.
		a.resetPhase(e, pid, nprocs)
		e.Barrier(a.bar)
	}
	e.Barrier(a.bar)
}

// prefetchAhead implements the paper's insertion: the particle record is
// prefetched (read-exclusive — it will be modified) two iterations before
// it is moved; the space cell of the *next* particle, whose record is
// already arriving, is determined and prefetched one iteration ahead.
//
// It opens the region (cpu.Env.Queue) that moveParticle's first one
// continues. Its only native read, parts[i+1].cell, is written by the
// particle's owner alone, which is this process.
func (a *App) prefetchAhead(e *cpu.Env, i, hi int) {
	e.Queue()
	e.PFCompute(2)
	if i+2 < hi {
		e.PrefetchRange(a.partAddr(i+2, 0), particleBytes, true)
	}
	if i+1 < hi {
		// Read the next particle's cell index (its record was
		// prefetched last iteration, so this is usually a cache hit)
		// and prefetch the cell record.
		e.Read(a.partAddr(i+1, 7))
		ci := a.parts[i+1].cell
		e.PrefetchRange(a.cellAddr(ci, 0), cellBytes, true)
	}
}

// moveParticle is one iteration of the main loop: read the particle,
// advance it, handle the cell, maybe collide.
func (a *App) moveParticle(e *cpu.Env, i int, rng *rand.Rand) {
	pt := &a.parts[i]

	// Read the full particle record (position, velocity, energy, cell).
	// A region (cpu.Env.Queue), or the rest of prefetchAhead's: no native
	// code runs between the reads. It ends before pt's velocity is read,
	// because a colliding process may write pt.vx.
	e.Queue()
	for f := 0; f < 9; f++ {
		e.Read(a.partAddr(i, f))
	}
	e.Compute(24) // advance position, timestep arithmetic
	e.Wait()

	const dt = 0.1
	pt.x += pt.vx * dt
	pt.y += pt.vy * dt
	pt.z += pt.vz * dt

	// Reflecting boundaries in y,z; x wraps (wind-tunnel flow).
	if pt.y < 0 {
		pt.y, pt.vy = -pt.y, -pt.vy
	}
	if pt.y > float64(a.p.NY) {
		pt.y, pt.vy = 2*float64(a.p.NY)-pt.y, -pt.vy
	}
	if pt.z < 0 {
		pt.z, pt.vz = -pt.z, -pt.vz
	}
	if pt.z > float64(a.p.NZ) {
		pt.z, pt.vz = 2*float64(a.p.NZ)-pt.z, -pt.vz
	}
	wrapped := false
	if pt.x < 0 || pt.x >= float64(a.p.NX) {
		wrapped = true // handled in the boundary phase
		if pt.x < 0 {
			pt.x += float64(a.p.NX)
		} else {
			pt.x -= float64(a.p.NX)
		}
	}
	_ = wrapped

	ci := a.cellIndex(pt.x, pt.y, pt.z)
	pt.cell = ci
	c := &a.cells[ci]

	// Boundary-condition and flow-property tables (hot read-only data).
	// A region: only address arithmetic runs between these reads. It ends
	// before the cell's object flag and occupancy are read, because other
	// processes update the cell.
	e.Queue()
	for f := 0; f < 4; f++ {
		e.Read(a.globals + mem.Addr(f*4))
	}
	// Read the cell record: occupancy, last occupant, object flag.
	for f := 0; f < 6; f++ {
		e.Read(a.cellAddr(ci, f))
	}
	// Collision-candidate scan touches the neighbouring cells' occupancy.
	for d := 1; d <= 3; d++ {
		ni := (ci + d) % len(a.cells)
		e.Read(a.cellAddr(ni, 0))
	}
	e.Compute(20)
	e.Wait()

	// Collision with the object: specular reflection.
	if c.isObject {
		pt.vx = -pt.vx
		e.Compute(12)
	} else if c.count > 0 && rng.Float64() < 0.3 {
		// Probabilistic collision with the cell's previous occupant:
		// exchange momentum along a random axis.
		j := c.lastPart
		if j != i && j >= 0 && j < len(a.parts) {
			other := &a.parts[j]
			// Read the partner's velocity. A region: no native code
			// runs between these operations, and it ends before the
			// swap reads the partner's velocity.
			e.Queue()
			for f := 3; f < 6; f++ {
				e.Read(a.partAddr(j, f))
			}
			e.Compute(30)
			e.Wait()
			pt.vx, other.vx = other.vx, pt.vx
			pt.energy = 0.5 * (pt.vx*pt.vx + pt.vy*pt.vy + pt.vz*pt.vz)
			other.energy = 0.5 * (other.vx*other.vx + other.vy*other.vy + other.vz*other.vz)
			c.collisions++
			// Write the partner's updated velocity and energy. A
			// region: the swap above happens before it opens, no native
			// code runs between the writes, and it ends before the cell
			// update.
			e.Queue()
			for f := 3; f < 7; f++ {
				e.Write(a.partAddr(j, f))
			}
			e.Write(a.cellAddr(ci, 2))
			e.Wait()
		}
	}

	// Update the cell: occupancy and last occupant.
	c.count++
	c.lastPart = i
	// A region: the cell update above happens before it opens, and no
	// native code runs between the writes.
	e.Queue()
	e.Write(a.cellAddr(ci, 0))
	e.Write(a.cellAddr(ci, 1))

	// Write back the particle record (position, velocity, energy, cell).
	for f := 0; f < 8; f++ {
		e.Write(a.partAddr(i, f))
	}
	e.Compute(26)
	e.Wait()
}

// cellPhase updates collision statistics on this process's slice of cells.
// It is one region (cpu.Env.Queue): between the barriers around this
// phase no process writes a cell's count, the only shared state it reads.
func (a *App) cellPhase(e *cpu.Env, pid, nprocs int) {
	ncells := len(a.cells)
	lo := pid * ncells / nprocs
	hi := (pid + 1) * ncells / nprocs
	e.Queue()
	for ci := lo; ci < hi; ci++ {
		e.Read(a.cellAddr(ci, 0))
		e.Read(a.cellAddr(ci, 2))
		e.Compute(6)
		if a.cells[ci].count > 0 {
			e.Write(a.cellAddr(ci, 3))
		}
	}
	e.Wait()
}

// boundaryPhase re-injects particles that left the domain in x.
func (a *App) boundaryPhase(e *cpu.Env, pid int, rng *rand.Rand, lo, hi int) {
	e.ReadRange(a.globals, mem.LineSize)
	count := 0
	for i := lo; i < hi; i++ {
		// Particles near the inflow get re-thermalized; model a small
		// deterministic fraction.
		if i%97 == 0 {
			pt := &a.parts[i]
			e.Read(a.partAddr(i, 0))
			pt.vx = rng.NormFloat64() + 2.0
			e.Write(a.partAddr(i, 3))
			e.Compute(14)
			count++
		}
	}
	e.Compute(10 + count)
}

// resetPhase clears per-step cell occupancy on this process's cell slice.
// It is one region (cpu.Env.Queue): each process writes only its own
// slice of cells, and no process reads those cells before the next
// barrier.
func (a *App) resetPhase(e *cpu.Env, pid, nprocs int) {
	ncells := len(a.cells)
	lo := pid * ncells / nprocs
	hi := (pid + 1) * ncells / nprocs
	e.Queue()
	for ci := lo; ci < hi; ci++ {
		if a.p.Prefetch && ci+4 < hi {
			e.PFCompute(1)
			e.PrefetchExcl(a.cellAddr(ci+4, 0))
		}
		a.cells[ci].count = 0
		a.cells[ci].lastPart = -1
		e.Write(a.cellAddr(ci, 0))
		e.Write(a.cellAddr(ci, 1))
		e.Compute(4)
	}
	e.Wait()
}

// TotalEnergy returns the kinetic energy sum (physics sanity checks).
func (a *App) TotalEnergy() float64 {
	var sum float64
	for i := range a.parts {
		sum += a.parts[i].energy
	}
	return sum
}

// Collisions returns the total collision count across cells.
func (a *App) Collisions() int {
	n := 0
	for i := range a.cells {
		n += a.cells[i].collisions
	}
	return n
}

var _ machine.App = (*App)(nil)
