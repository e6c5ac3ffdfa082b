package stats

import (
	"encoding/json"
	"fmt"

	"latsim/internal/sim"
)

// Proc's run-length histogram is unexported, but the persistent result
// cache (internal/runner) round-trips whole results through JSON and a
// warm-cache run must reproduce the cold run byte for byte — including
// MedianRunLength and MeanRunLength. The custom (un)marshalers below
// carry the histogram as sparse (length, count) pairs in ascending order
// of length alongside the exported fields, whichever part of the
// histogram holds a length, so the encoding does not depend on where the
// dense part ends. Every field is integral, so the round trip is exact.

// MarshalJSON serializes all statistics including the run histogram.
func (p *Proc) MarshalJSON() ([]byte, error) {
	type alias Proc // drops methods to avoid recursion
	aux := struct {
		*alias
		RunHist [][2]uint64 `json:"run_hist,omitempty"`
		Runs    uint64      `json:"runs,omitempty"`
	}{alias: (*alias)(p), Runs: p.numRuns()}
	p.eachRunLength(func(l, c uint32) bool {
		aux.RunHist = append(aux.RunHist, [2]uint64{uint64(l), uint64(c)})
		return true
	})
	return json.Marshal(aux)
}

// UnmarshalJSON restores statistics written by MarshalJSON.
func (p *Proc) UnmarshalJSON(b []byte) error {
	type alias Proc
	aux := struct {
		*alias
		RunHist [][2]uint64 `json:"run_hist"`
		Runs    uint64      `json:"runs"`
	}{alias: (*alias)(p)}
	if err := json.Unmarshal(b, &aux); err != nil {
		return err
	}
	p.runHist = [denseRuns]uint32{}
	p.longRuns = nil
	for _, lc := range aux.RunHist {
		switch l, n := lc[0], uint32(lc[1]); {
		case l < denseRuns:
			p.runHist[l] += n
		case n != 0:
			p.addLongRuns(sim.Time(l), n)
		}
	}
	if n := p.numRuns(); n != aux.Runs {
		return fmt.Errorf("stats: run histogram counts %d runs, document says %d", n, aux.Runs)
	}
	return nil
}
