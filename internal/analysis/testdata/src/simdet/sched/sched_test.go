package sched

import (
	"testing"
	"time"
)

// Test files of an event-scheduled package are held to the same rules:
// the driver analyzes the package's test variant too.
func TestWallClock(t *testing.T) {
	_ = time.Now() // want `wall-clock time.Now in event-scheduled package`
}
