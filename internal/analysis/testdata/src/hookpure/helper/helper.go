// Package helper is the dependency half of the hookpure golden fixture:
// it declares no hook type, but its exported FnEffects facts must carry
// the global write across the package boundary into the hooks package.
package helper

var total int

// Bump writes package-level state; hookpure flags a hook method that
// calls it via the exported fact.
func Bump() {
	total++
}

// Pure has no effects; calls to it must stay silent.
func Pure(x int) int { return x + 1 }
