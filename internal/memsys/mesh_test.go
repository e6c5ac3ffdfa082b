package memsys

import (
	"testing"

	"latsim/internal/config"
	"latsim/internal/mem"
	"latsim/internal/sim"
)

func meshRig(nprocs int) *rig {
	return newRig(nprocs, func(c *config.Config) { c.MeshNetwork = true })
}

func attachMesh(r *rig) *Mesh {
	m := NewMesh(r.k, len(r.nodes), r.cfg.MeshHopCycles, r.cfg.MeshLinkOccupancy)
	for _, n := range r.nodes {
		n.AttachMesh(m)
	}
	return m
}

func TestMeshHops(t *testing.T) {
	m := NewMesh(sim.NewKernel(), 16, 6, 2) // 4x4
	cases := []struct{ from, to, want int }{
		{0, 0, 0}, {0, 1, 1}, {0, 4, 1}, {0, 5, 2}, {0, 15, 6}, {3, 12, 6},
	}
	for _, c := range cases {
		if got := m.Hops(c.from, c.to); got != c.want {
			t.Errorf("Hops(%d,%d) = %d, want %d", c.from, c.to, got, c.want)
		}
	}
}

func TestMeshLatencyGrowsWithDistance(t *testing.T) {
	r := meshRig(16)
	mesh := attachMesh(r)
	// Same-row neighbor (1 hop) vs opposite corner (6 hops).
	near := r.alloc.AllocOnNode(mem.LineSize, 1)
	far := r.alloc.AllocOnNode(mem.LineSize, 15)
	lnear := r.readLatency(t, 0, near)
	lfar := r.readLatency(t, 0, far)
	if lfar <= lnear {
		t.Errorf("far read (%d) not slower than near read (%d)", lfar, lnear)
	}
	wantDelta := sim.Time(2 * (mesh.Hops(0, 15) - mesh.Hops(0, 1)) * (r.cfg.MeshHopCycles + r.cfg.MeshLinkOccupancy))
	if lfar-lnear != wantDelta {
		t.Errorf("latency delta = %d, want %d (hop-proportional)", lfar-lnear, wantDelta)
	}
}

func TestMeshRouteDeliversEverywhere(t *testing.T) {
	k := sim.NewKernel()
	m := NewMesh(k, 16, 6, 2)
	delivered := 0
	for from := 0; from < 16; from++ {
		for to := 0; to < 16; to++ {
			m.Route(from, to, nil, sim.Func(func() { delivered++ }))
		}
	}
	k.Run(nil)
	if delivered != 256 {
		t.Fatalf("delivered = %d, want 256", delivered)
	}
}

func TestMeshLinkContention(t *testing.T) {
	k := sim.NewKernel()
	m := NewMesh(k, 16, 6, 2)
	// Many messages crossing the same first link (0->1) serialize.
	var last sim.Time
	for i := 0; i < 10; i++ {
		m.Route(0, 1, nil, sim.Func(func() {
			if k.Now() > last {
				last = k.Now()
			}
		}))
	}
	k.Run(nil)
	// One message: occ 2 + hop 6 = 8; ten messages share the link:
	// the last must finish at >= 10*occ + hop.
	if last < sim.Time(10*2+6) {
		t.Errorf("last delivery at %d, want >= 26 (link serialization)", last)
	}
}

func TestMeshProtocolInvariants(t *testing.T) {
	r := meshRig(9) // a 3x3 mesh: odd width, a centre node with four links
	attachMesh(r)
	base := r.alloc.Alloc(64 * mem.LineSize)
	for i := 0; i < 300; i++ {
		node := r.nodes[i%9]
		a := base + mem.Addr((i*13%64)*mem.LineSize)
		when := sim.Time(i * 17)
		if i%3 == 0 {
			r.k.AtActor(when, sim.Func(func() { node.WBEnqueue(a, false, nil) }))
		} else {
			r.k.AtActor(when, sim.Func(func() {
				if node.ClassifyRead(a) != ClassPrimary {
					node.Read(a, sim.Func(func() {}))
				}
			}))
		}
	}
	r.k.Run(nil)
	if err := CheckInvariants(r.nodes); err != nil {
		t.Fatal(err)
	}
}

// TestNewMeshRejectsNonSquare: a mesh is w×w, as config.Validate demands
// of MeshNetwork, so NewMesh refuses any other node count.
func TestNewMeshRejectsNonSquare(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewMesh(12 nodes) did not panic")
		}
	}()
	NewMesh(sim.NewKernel(), 12, 4, 2)
}
