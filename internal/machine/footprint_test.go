package machine

import (
	"runtime"
	"testing"

	"latsim/internal/config"
)

// TestNewFootprintPerNode bounds what New allocates per node, so a
// fixed-size per-processor or per-node array cannot grow the machine
// unnoticed: a session keeps every run's per-processor statistics, so
// such an array multiplies by every processor of every run. A 64-node
// machine of the default configuration allocates about 5.6 KiB per node
// (7.6 KiB while a secondary-cache way took 16 bytes); a dense run-length
// histogram of 4,097 counts per processor would add 16 KiB. The minimum
// of three measurements discards what the runtime allocates in the
// background.
func TestNewFootprintPerNode(t *testing.T) {
	const procs, limit = 64, 8 << 10
	cfg := config.Default()
	cfg.Procs = procs
	var perNode uint64
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := New(cfg)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		runtime.KeepAlive(m)
		if n := (after.TotalAlloc - before.TotalAlloc) / procs; i == 0 || n < perNode {
			perNode = n
		}
	}
	t.Logf("machine.New allocates %d bytes per node on %d nodes", perNode, procs)
	if perNode > limit {
		t.Errorf("machine.New allocates %d bytes per node on %d nodes, want at most %d", perNode, procs, limit)
	}
}
