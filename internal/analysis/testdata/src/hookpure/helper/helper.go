// Package helper is the dependency half of the hookpure golden fixture:
// it declares no hook type, but the effects summary published for it
// must carry the global write across the package boundary.
package helper

var total int

// Bump writes package-level state; hookpure flags a hook method that
// calls it via the published summary.
func Bump() {
	total++
}

// Pure has no effects; calls to it must stay silent.
func Pure(x int) int { return x + 1 }
