package memsys

import (
	"fmt"

	"latsim/internal/config"
	"latsim/internal/obs"
	"latsim/internal/obs/span"
	"latsim/internal/sim"
)

// Mesh is an optional 2-D wormhole-routed interconnect, the topology of
// the real DASH machine. The default network model is "direct" (a
// constant-latency hop calibrated to Table 1); the mesh replaces it with
// dimension-ordered X-then-Y routing over per-link resources, so latency
// grows with Manhattan distance and traffic contends for individual
// links. Used by the network-topology ablation.
type Mesh struct {
	k   *sim.Kernel
	w   int // nodes per row and per column
	hop int // router + wire cycles per hop
	occ int // link occupancy per message (flits)

	links map[[2]int]*sim.Resource // directed neighbor edges
	rec   *obs.Recorder            // optional observability recorder (nil = off)
}

// SetObs installs an observability recorder on the mesh (nil disables).
func (m *Mesh) SetObs(rec *obs.Recorder) { m.rec = rec }

// NewMesh builds a w×w mesh for a square node count (config.Validate
// rejects any other with MeshNetwork) and panics on a count that is not
// a square. hop is the per-hop latency in cycles and occ the per-link
// occupancy per message.
func NewMesh(k *sim.Kernel, nodes, hop, occ int) *Mesh {
	w := config.Isqrt(nodes)
	if w*w != nodes {
		panic(fmt.Sprintf("memsys: a mesh needs a square node count, got %d", nodes))
	}
	m := &Mesh{k: k, w: w, hop: hop, occ: occ, links: map[[2]int]*sim.Resource{}}
	link := func(a, b int) {
		m.links[[2]int{a, b}] = sim.NewResource(k)
		m.links[[2]int{b, a}] = sim.NewResource(k)
	}
	for id := 0; id < nodes; id++ {
		x, y := id%w, id/w
		if x+1 < w {
			link(id, id+1)
		}
		if y+1 < w {
			link(id, id+w)
		}
	}
	return m
}

// Hops returns the Manhattan distance between two nodes.
func (m *Mesh) Hops(from, to int) int {
	fx, fy := from%m.w, from/m.w
	tx, ty := to%m.w, to/m.w
	dx, dy := tx-fx, ty-fy
	if dx < 0 {
		dx = -dx
	}
	if dy < 0 {
		dy = -dy
	}
	return dx + dy
}

// nextHop is dimension-ordered (X then Y) routing.
func (m *Mesh) nextHop(cur, to int) int {
	cx, cy := cur%m.w, cur/m.w
	tx, ty := to%m.w, to/m.w
	switch {
	case cx < tx:
		return cur + 1
	case cx > tx:
		return cur - 1
	case cy < ty:
		return cur + m.w
	case cy > ty:
		return cur - m.w
	}
	return cur
}

// Route sends a message from one node to another, occupying each link on
// the dimension-ordered path and paying the per-hop latency; done runs at
// delivery. sp is the sending transaction's span (nil when untraced): each
// link crossed opens one child span, so per-hop queueing is visible in the
// trace.
func (m *Mesh) Route(from, to int, sp *span.Span, done sim.Actor) {
	if from == to {
		m.k.AfterActor(2, done)
		return
	}
	cur := from
	var step func()
	step = func() {
		if cur == to {
			done.Act()
			return
		}
		next := m.nextHop(cur, to)
		link, ok := m.links[[2]int{cur, next}]
		if !ok {
			panic(fmt.Sprintf("memsys: mesh has no link %d->%d", cur, next))
		}
		if m.rec != nil {
			m.rec.MeshHop(cur, next)
		}
		c := sp.Child(span.KSegLink, cur)
		link.AcquireActor(sim.Time(m.occ), sim.Func(func() {
			m.k.AfterActor(sim.Time(m.hop), sim.Func(func() {
				c.End()
				cur = next
				step()
			}))
		}))
	}
	step()
}

// AttachMesh switches the node's outbound messaging to the mesh.
func (n *Node) AttachMesh(m *Mesh) { n.mesh = m }
