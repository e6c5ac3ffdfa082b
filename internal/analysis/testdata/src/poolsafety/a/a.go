// Package a is the poolsafety golden fixture: deliberate pool-contract
// violations (marked with want comments) next to legal patterns that
// must stay silent.
package a

import (
	"latsim/internal/analysis/testdata/src/poolsafety/b"
	"latsim/internal/sim"
)

type obj struct {
	id   int
	next *obj
}

type holder struct {
	cur *obj
	m   map[int]*obj
}

func useAfterPut(p *sim.Pool[obj]) int {
	x := p.Get()
	x.id = 1
	p.Put(x)
	return x.id // want `use of pooled object x after Put`
}

func writeAfterPut(p *sim.Pool[obj]) {
	x := p.Get()
	p.Put(x)
	x.id = 2 // want `use of pooled object x after Put`
}

func doublePut(p *sim.Pool[obj]) {
	x := p.Get()
	p.Put(x)
	p.Put(x) // want `double Put of pooled object x`
}

func storeOutlives(p *sim.Pool[obj], h *holder) {
	x := p.Get()
	h.cur = x
	p.Put(x) // want `still stored in h.cur`
}

func mapStoreOutlives(p *sim.Pool[obj], h *holder) {
	x := p.Get()
	h.m[1] = x
	p.Put(x) // want `still stored in h.m\[1\]`
}

func keptAcrossPackages(p *sim.Pool[int], box *b.Box) {
	x := p.Get()
	box.Keep(x)
	p.Put(x) // want `recycled while still stored in a location kept by \(b.Box\).Keep`
}

func keptThroughWrapper(p *sim.Pool[int], box *b.Box) {
	x := p.Get()
	box.KeepVia(x)
	p.Put(x) // want `recycled while still stored in a location kept by \(b.Box\).KeepVia`
}

func (h *holder) keep(x *obj) { h.cur = x }

func (h *holder) keepVia(x *obj) { h.keep(x) }

func keptThroughLocalWrapper(p *sim.Pool[obj], h *holder) {
	x := p.Get()
	h.keepVia(x)
	p.Put(x) // want `recycled while still stored in a location kept by \(a.holder\).keepVia`
}

func branchPut(p *sim.Pool[obj], done bool) int {
	x := p.Get()
	if done {
		p.Put(x)
	}
	return x.id // want `use of pooled object x after Put`
}

// --- negative cases: all silent ---

func putLast(p *sim.Pool[obj]) {
	x := p.Get()
	x.id = 0
	x.next = nil
	p.Put(x)
}

func storeCleared(p *sim.Pool[obj], h *holder) {
	x := p.Get()
	h.cur = x
	h.cur = nil
	p.Put(x)
}

func mapStoreDeleted(p *sim.Pool[obj], h *holder) {
	x := p.Get()
	h.m[1] = x
	h.m[1] = nil
	p.Put(x)
}

func branchReturn(p *sim.Pool[obj], done bool) int {
	x := p.Get()
	if done {
		p.Put(x)
		return 0
	}
	return x.id
}

func reassigned(p *sim.Pool[obj]) int {
	x := p.Get()
	p.Put(x)
	x = p.Get()
	return x.id
}

func selfStore(p *sim.Pool[obj]) {
	x := p.Get()
	x.next = x
	x.next = nil
	p.Put(x)
}
