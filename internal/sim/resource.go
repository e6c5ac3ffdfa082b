package sim

// Resource models a fully pipelined-in-arrival but serially occupied
// hardware resource — a node bus, a network-interface port, a memory /
// directory controller. A request occupies the resource for a fixed number
// of cycles; requests queue FIFO. Resources are how the simulator models
// contention on top of the no-contention base latencies of Table 1.
type Resource struct {
	k    *Kernel
	name string
	// freeAt is the first cycle at which the resource is idle.
	freeAt Time

	// Statistics.
	busyCycles Time // total cycles the resource was occupied
	waitCycles Time // total cycles requests spent queued
	requests   uint64
}

// NewResource creates a resource attached to kernel k. The name is used in
// diagnostics only.
func NewResource(k *Kernel, name string) *Resource {
	return &Resource{k: k, name: name}
}

// AcquireActor occupies the resource for hold cycles, queueing behind
// earlier requests, and schedules a.Act() when the occupancy completes (a
// nil a schedules nothing). It returns the completion time. A zero hold
// passes through immediately (still FIFO ordered after queued work).
func (r *Resource) AcquireActor(hold Time, a Actor) Time {
	now := r.k.Now()
	start := max(r.freeAt, now)
	r.waitCycles += start - now
	r.busyCycles += hold
	r.requests++
	end := start + hold
	r.freeAt = end
	if a != nil {
		r.k.AtActor(end, a)
	}
	return end
}

// Name returns the resource's diagnostic name.
func (r *Resource) Name() string { return r.name }

// BusyCycles returns total occupied cycles.
func (r *Resource) BusyCycles() Time { return r.busyCycles }

// WaitCycles returns total cycles requests spent waiting in the queue.
func (r *Resource) WaitCycles() Time { return r.waitCycles }

// Requests returns the number of AcquireActor calls.
func (r *Resource) Requests() uint64 { return r.requests }

// Utilization returns busy cycles divided by elapsed time, in [0,1].
func (r *Resource) Utilization() float64 {
	if r.k.Now() == 0 {
		return 0
	}
	return float64(r.busyCycles) / float64(r.k.Now())
}
