// Package b is the dependency half of the poolsafety golden fixture:
// Keep stores its pointer parameter in a field, and KeepVia passes it
// on to Keep; package a learns both only from the effects summary
// published for b.
package b

// Box holds a pointer beyond the call that hands it over.
type Box struct{ P *int }

// Keep stores p in the box.
func (b *Box) Keep(p *int) { b.P = p }

// KeepVia forwards p to Keep, so it keeps p too.
func (b *Box) KeepVia(p *int) { b.Keep(p) }
