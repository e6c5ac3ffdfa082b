package sim

// Resource models a fully pipelined-in-arrival but serially occupied
// hardware resource — a node bus, a network-interface port, a memory /
// directory controller. A request occupies the resource for a fixed number
// of cycles; requests queue FIFO. Resources are how the simulator models
// contention on top of the no-contention base latencies of Table 1.
type Resource struct {
	k *Kernel
	// freeAt is the first cycle at which the resource is idle.
	freeAt Time
}

// NewResource creates a resource attached to kernel k.
func NewResource(k *Kernel) *Resource {
	return &Resource{k: k}
}

// AcquireActor occupies the resource for hold cycles, queueing behind
// earlier requests, and schedules a.Act() when the occupancy completes (a
// nil a schedules nothing). It returns the completion time. A zero hold
// passes through immediately (still FIFO ordered after queued work).
func (r *Resource) AcquireActor(hold Time, a Actor) Time {
	end := max(r.freeAt, r.k.Now()) + hold
	r.freeAt = end
	if a != nil {
		r.k.AtActor(end, a)
	}
	return end
}
