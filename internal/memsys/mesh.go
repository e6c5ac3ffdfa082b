package memsys

import (
	"fmt"

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
	k     *sim.Kernel
	w, h  int
	nodes int
	hop   int // router + wire cycles per hop
	occ   int // link occupancy per message (flits)

	links map[[2]int]*sim.Resource // directed neighbor edges
	rec   *obs.Recorder            // optional observability recorder (nil = off)
}

// SetObs installs an observability recorder on the mesh (nil disables).
func (m *Mesh) SetObs(rec *obs.Recorder) { m.rec = rec }

// NewMesh builds a near-square mesh for the given node count. hop is the
// per-hop latency in cycles and occ the per-link occupancy per message.
func NewMesh(k *sim.Kernel, nodes, hop, occ int) *Mesh {
	w := 1
	for w*w < nodes {
		w++
	}
	h := (nodes + w - 1) / w
	m := &Mesh{k: k, w: w, h: h, nodes: nodes, hop: hop, occ: occ, links: map[[2]int]*sim.Resource{}}
	link := func(a, b int) {
		if _, ok := m.links[[2]int{a, b}]; !ok {
			m.links[[2]int{a, b}] = sim.NewResource(k)
		}
	}
	for id := 0; id < nodes; id++ {
		x, y := id%w, id/w
		if x+1 < w && id+1 < nodes {
			link(id, id+1)
			link(id+1, id)
		}
		if y+1 < h && id+w < nodes {
			link(id, id+w)
			link(id+w, id)
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

// nextHop is dimension-ordered (X then Y) routing; on a ragged mesh (the
// last row shorter than the rest) an X-move into a missing node is
// replaced by the Y-move, which always exists.
func (m *Mesh) nextHop(cur, to int) int {
	cx, cy := cur%m.w, cur/m.w
	tx, ty := to%m.w, to/m.w
	yMove := func() int {
		if cy < ty {
			return cur + m.w
		}
		return cur - m.w
	}
	switch {
	case cx < tx:
		if cur+1 < m.nodes {
			return cur + 1
		}
		return yMove()
	case cx > tx:
		return cur - 1
	case cy != ty:
		n := yMove()
		if n >= m.nodes {
			// Moving down into a shorter last row: step left first.
			return cur - 1
		}
		return n
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
