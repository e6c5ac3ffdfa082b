package sched

// WallClock exposes wallClock to the external test package. Only the
// test variant declares it, so that package type-checks only against
// "sched [sched.test]".
var WallClock = wallClock
