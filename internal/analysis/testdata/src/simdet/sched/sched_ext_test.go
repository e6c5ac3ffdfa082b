package sched_test

import (
	"testing"

	"latsim/internal/analysis/testdata/src/simdet/sched"
)

func TestExternal(t *testing.T) {
	_ = sched.WallClock()
}
