package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"

	"latsim/internal/obs/span"
)

// WriteChromeTrace exports the report in the Chrome trace_event JSON
// format (the "JSON Array Format" with a traceEvents wrapper), loadable
// directly in Perfetto (ui.perfetto.dev) or chrome://tracing.
//
// Layout: one process ("latsim machine"), one thread track per simulated
// processor carrying its execution-time buckets as complete ("X") slices,
// and one counter ("C") track per time series sampled at every interval
// boundary. Timestamps are microseconds in the trace format; one
// microsecond encodes one simulated processor cycle.
//
// The writer emits events in a fixed order (metadata, per-processor
// slices, then counters interval-by-interval) so the output for a given
// report is byte-stable — the golden-file test relies on this.
func (rep *Report) WriteChromeTrace(w io.Writer) error {
	bw := bufio.NewWriter(w)
	first := true
	emit := func(format string, args ...any) {
		if first {
			first = false
		} else {
			bw.WriteString(",\n")
		}
		fmt.Fprintf(bw, format, args...)
	}

	bw.WriteString("{\"traceEvents\":[\n")

	// Metadata: name the process and one thread per processor.
	emit(`{"ph":"M","pid":1,"tid":0,"name":"process_name","args":{"name":"latsim machine"}}`)
	for _, t := range rep.Tracks {
		emit(`{"ph":"M","pid":1,"tid":%d,"name":"thread_name","args":{"name":"proc %d"}}`,
			t.Proc+1, t.Proc)
		emit(`{"ph":"M","pid":1,"tid":%d,"name":"thread_sort_index","args":{"sort_index":%d}}`,
			t.Proc+1, t.Proc)
	}

	// Per-processor bucket slices.
	for _, t := range rep.Tracks {
		for _, s := range t.Segments {
			emit(`{"ph":"X","pid":1,"tid":%d,"ts":%d,"dur":%d,"name":%q,"cat":"bucket"}`,
				t.Proc+1, s[1], s[2], bucketName(s[0]))
		}
	}

	// Counter tracks, one sample per interval.
	counter := func(name, arg string, values []uint64) {
		for i, v := range values {
			emit(`{"ph":"C","pid":1,"ts":%d,"name":%q,"args":{%q:%d}}`,
				uint64(i)*rep.Interval, name, arg, v)
		}
	}
	for _, s := range rep.BucketCycles {
		if sum(s.Values) == 0 {
			continue
		}
		counter("bucket "+s.Name, "cycles", s.Values)
	}
	counter("wb depth (max)", "depth", widen(rep.WBDepthMax))
	counter("context switches", "count", widen(rep.Switches))
	for _, s := range rep.DirTxns {
		if sum(s.Values) == 0 {
			continue
		}
		counter("dir "+s.Name, "count", s.Values)
	}
	counter("kernel events", "count", rep.KernelEvents)
	if len(rep.MeshHops) > 0 {
		counter("mesh hops", "count", rep.MeshHops)
	}

	// Transaction spans, only present when span tracing was enabled —
	// appended after all PR 3 events so span-free traces stay byte-stable.
	if sp := rep.Spans; sp != nil && len(sp.Spans) > 0 {
		emitSpanEvents(emit, sp)
	}

	bw.WriteString("\n],\"displayTimeUnit\":\"ms\",\"otherData\":{")
	fmt.Fprintf(bw, "\"elapsed_cycles\":%d,\"interval_cycles\":%d,\"procs\":%d,\"time_unit\":\"1us = 1 cycle\"",
		rep.Elapsed, rep.Interval, rep.Procs)
	bw.WriteString("}}\n")
	return bw.Flush()
}

// emitSpanEvents renders the sampled transaction spans as a second trace
// process ("latsim memory system", pid 2) with one thread track per
// node: transaction roots become async ("b"/"e") events, their segments
// become complete ("X") slices on the node they occupied, and flow
// ("s"/"t"/"f") events with the root's ID join each transaction's
// segment chain across node tracks so Perfetto draws the causal arrows.
// Iteration follows record order (deterministic), nodes sorted.
func emitSpanEvents(emit func(format string, args ...any), tr *span.Trace) {
	emit(`{"ph":"M","pid":2,"tid":0,"name":"process_name","args":{"name":"latsim memory system"}}`)
	seen := map[int]bool{}
	var nodes []int
	for i := range tr.Spans {
		if n := tr.Spans[i].Node; !seen[n] {
			seen[n] = true
			nodes = append(nodes, n)
		}
	}
	sort.Ints(nodes)
	for _, n := range nodes {
		emit(`{"ph":"M","pid":2,"tid":%d,"name":"thread_name","args":{"name":"node %d"}}`, n+1, n)
		emit(`{"ph":"M","pid":2,"tid":%d,"name":"thread_sort_index","args":{"sort_index":%d}}`, n+1, n)
	}

	var roots []*span.Rec
	segsOf := map[uint64][]*span.Rec{}
	for i := range tr.Spans {
		r := &tr.Spans[i]
		if r.Kind.Txn() {
			roots = append(roots, r)
			continue
		}
		segsOf[r.Parent] = append(segsOf[r.Parent], r)
	}
	for _, r := range roots {
		emit(`{"ph":"b","pid":2,"tid":%d,"ts":%d,"id":%d,"name":%q,"cat":"txn"}`,
			r.Node+1, r.Start, r.ID, r.Kind.String())
		emit(`{"ph":"e","pid":2,"tid":%d,"ts":%d,"id":%d,"name":%q,"cat":"txn"}`,
			r.Node+1, r.Start+r.Dur, r.ID, r.Kind.String())
	}
	for i := range tr.Spans {
		r := &tr.Spans[i]
		if r.Kind.Txn() {
			continue
		}
		emit(`{"ph":"X","pid":2,"tid":%d,"ts":%d,"dur":%d,"name":%q,"cat":"span","args":{"txn":%d}}`,
			r.Node+1, r.Start, r.Dur, r.Kind.String(), r.Parent)
	}
	for _, rt := range roots {
		segs := segsOf[rt.ID]
		if len(segs) < 2 {
			continue // a flow needs at least a start and an end
		}
		for i, s := range segs {
			switch {
			case i == 0:
				emit(`{"ph":"s","pid":2,"tid":%d,"ts":%d,"id":%d,"name":"txn flow","cat":"flow"}`,
					s.Node+1, s.Start, rt.ID)
			case i == len(segs)-1:
				emit(`{"ph":"f","bp":"e","pid":2,"tid":%d,"ts":%d,"id":%d,"name":"txn flow","cat":"flow"}`,
					s.Node+1, s.Start, rt.ID)
			default:
				emit(`{"ph":"t","pid":2,"tid":%d,"ts":%d,"id":%d,"name":"txn flow","cat":"flow"}`,
					s.Node+1, s.Start, rt.ID)
			}
		}
	}
}

// bucketName maps a Segment's bucket index to its stats name without
// importing the index type into the hot encode loop.
func bucketName(b uint64) string {
	// stats.Bucket(b).String() — inlined via the report's series names to
	// keep ordering independent of the stats package's internals.
	names := []string{"busy", "pf_overhead", "read", "write", "sync", "switching", "no_switch", "all_idle"}
	if b < uint64(len(names)) {
		return names[b]
	}
	return fmt.Sprintf("bucket(%d)", b)
}

func sum(s []uint64) uint64 {
	var t uint64
	for _, v := range s {
		t += v
	}
	return t
}
