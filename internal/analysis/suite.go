package analysis

// All returns the full analyzer suite with production configuration:
// the real pool type, the real nil-guarded and hot-path hook types and
// the real event-scheduled package list. cmd/latsimvet and CI run
// exactly this.
func All() []*Analyzer {
	return []*Analyzer{
		NewPoolsafety(),
		NewNilsafe(),
		NewSimdet(),
		NewHookpure(),
	}
}
