package memsys

import (
	"latsim/internal/check"
	"latsim/internal/dirset"
	"latsim/internal/mem"
	"latsim/internal/sim"
)

// inspector adapts the node slice to the checker's read-only view.
// Conversions between the memsys enums and the check package's mirrors
// are explicit switches so the two cannot drift silently.
type inspector struct {
	nodes []*Node
}

func (i inspector) NumNodes() int { return len(i.nodes) }

func (i inspector) HomeOf(l mem.Line) int {
	return i.nodes[0].alloc.Home(mem.AddrOf(l))
}

func (i inspector) Dir(home int, l mem.Line) (check.DirState, dirset.View, int, bool) {
	h := i.nodes[home]
	e := h.lookup(l)
	if e == nil {
		return check.DirUncached, dirset.View{}, 0, false
	}
	s := check.DirUncached
	switch e.state {
	case DirShared:
		s = check.DirShared
	case DirDirty:
		s = check.DirDirty
	}
	return s, h.sharers(e), int(e.owner), e.busy
}

func (i inspector) CacheState(node int, l mem.Line) check.CacheState {
	switch i.nodes[node].sec.Peek(l) {
	case Shared:
		return check.CacheShared
	case Dirty:
		return check.CacheDirty
	}
	return check.CacheInvalid
}

func (i inspector) HasMSHR(node int, l mem.Line) bool {
	return i.nodes[node].mshrs.get(l) != nil
}

func (i inspector) HasVictim(node int, l mem.Line) bool {
	return i.nodes[node].victims.get(l) != nil
}

// EnableCheck installs a runtime coherence invariant checker across the
// machine's nodes and returns it. ordered selects the strict write-
// buffer FIFO assertion (PC, or single-context SC — see check.New).
// Like SetObs, the hook is a plain
// pointer: nil (the default) keeps every check site on its fast path.
func EnableCheck(k *sim.Kernel, nodes []*Node, ordered bool) *check.Checker {
	chk := check.New(k, inspector{nodes: nodes}, ordered)
	for _, n := range nodes {
		n.chk = chk
	}
	return chk
}
