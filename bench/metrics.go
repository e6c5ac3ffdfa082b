package main

import (
	"fmt"
	"io"
	"sort"
)

// endToEnd reduces the timed samples and the set-ups to the end-to-end
// metrics. Timings are divided by the host's slowdown measured around
// them (calib.go); host_* keep the unscaled host seconds.
func endToEnd(r *timedRun, sus []setupRun) map[string]summary {
	var wall, cpu, rate, alloc, live, hostWall, hostCPU, slow, setup, hostSetup []float64
	for _, s := range r.samples {
		wall = append(wall, s.wall.Seconds()/s.slow)
		cpu = append(cpu, s.cpu.Seconds()/s.slow)
		rate = append(rate, float64(s.work.reads+s.work.writes)/(s.wall.Seconds()/s.slow)/1e6)
		alloc = append(alloc, s.allocMB)
		live = append(live, s.liveMB)
		hostWall = append(hostWall, s.wall.Seconds())
		hostCPU = append(hostCPU, s.cpu.Seconds())
		slow = append(slow, s.slow)
	}
	for _, su := range sus {
		setup = append(setup, su.Secs/su.Slow)
		hostSetup = append(hostSetup, su.Secs)
	}
	fail := 0.0
	if r.attempted > 0 {
		fail = float64(r.failed) / float64(r.attempted)
	}
	return map[string]summary{
		"wall_s":       summarize(wall),
		"mrefs_per_s":  summarize(rate),
		"cpu_s":        summarize(cpu),
		"setup_s":      summarize(setup),
		"alloc_mb":     summarize(alloc),
		"live_mb":      summarize(live),
		"fail_ratio":   summarize([]float64{fail}),
		"host_wall_s":  summarize(hostWall),
		"host_cpu_s":   summarize(hostCPU),
		"host_setup_s": summarize(hostSetup),
		"slowdown":     summarize(slow),
	}
}

// extraEndToEnd are the end-to-end values printed and stored beside the
// metrics BENCHMARK.json declares.
var extraEndToEnd = []metricSpec{
	{Name: "fail_ratio", Unit: "ratio"},
	{Name: "host_wall_s", Unit: "s"},
	{Name: "host_cpu_s", Unit: "s"},
	{Name: "host_setup_s", Unit: "s"},
	{Name: "slowdown", Unit: "ratio"},
}

func medians(m map[string]summary) map[string]float64 {
	out := make(map[string]float64, len(m))
	for k, v := range m {
		out[k] = v.Median
	}
	return out
}

// sweepOnly are the per-layer metrics only the sweep workload has; the
// per-layer list of BENCHMARK.json holds the metrics every workload has.
var sweepOnly = []metricSpec{
	{Name: "runner.exec_s", Unit: "s", Better: "lower"},
	{Name: "runner.queue_wait_s", Unit: "s", Better: "lower"},
	{Name: "runner.store_s", Unit: "s", Better: "lower"},
	{Name: "runner.warm_s", Unit: "s", Better: "lower"},
	{Name: "runner.parallel_eff", Unit: "ratio", Better: "higher"},
	{Name: "runner.executed", Unit: "count", Better: "lower"},
	{Name: "runner.cache_hits", Unit: "count", Better: "higher"},
}

// layerMetrics derives the per-layer metrics of a traced pass. refWall
// is the untraced median host seconds per iteration.
func layerMetrics(w *workload, tp *traced, refWall float64, mic map[string]summary) map[string]float64 {
	med := func(f func(*sample) float64) float64 {
		var xs []float64
		for _, s := range tp.samples {
			xs = append(xs, f(s))
		}
		return median(xs)
	}
	count := func(f func(*work) uint64) float64 {
		return med(func(s *sample) float64 { return float64(f(&s.work)) })
	}
	m := map[string]float64{}
	for l, v := range tp.shares {
		m[l+".cpu_share"] = v
	}
	switches := count(func(w *work) uint64 {
		var n uint64
		for _, c := range w.ops {
			n += c
		}
		return n
	})
	m["handoff.switches"] = switches
	for i, name := range opNames {
		m["cpu.ops."+name] = count(func(w *work) uint64 { return w.ops[i] })
	}
	m["sim.events"] = count(func(w *work) uint64 { return w.events })
	m["sim.scheduled"] = count(func(w *work) uint64 { return w.scheduled })
	m["sim.advances"] = count(func(w *work) uint64 { return w.advances })
	m["sim.events_per_ref"] = ratio(m["sim.events"], count(func(w *work) uint64 { return w.reads + w.writes }))
	m["cpu.ctx_switches"] = count(func(w *work) uint64 { return w.ctxSwitches })
	m["memsys.read_misses"] = count(func(w *work) uint64 { return w.readMisses })
	m["memsys.write_misses"] = count(func(w *work) uint64 { return w.writeMisses })
	m["memsys.invals_sent"] = count(func(w *work) uint64 { return w.invalsSent })
	m["memsys.read_hit_ratio"] = ratio(count(func(w *work) uint64 { return w.readHits }), count(func(w *work) uint64 { return w.reads }))
	pf := count(func(w *work) uint64 { return w.prefetches })
	m["memsys.prefetch_useful_ratio"] = ratio(pf-count(func(w *work) uint64 { return w.pfUseless }), pf)

	m["handoff.ns_per_switch"] = mic["handoff.ns_per_switch"].Median
	m["sim.kernel.ns_per_event"] = mic["sim.kernel.ns_per_event"].Median
	// Simulations on parallel runner workers switch on separate cores.
	m["handoff.est_share"] = 100 * ratio(switches*m["handoff.ns_per_switch"]/1e9, float64(w.parallel)*refWall)

	totals := spanTotals(tp.spans)
	spanMed := func(name string) float64 {
		var xs []float64
		for _, t := range totals {
			xs = append(xs, t[name].Seconds())
		}
		return median(xs)
	}
	m["machine.new_s"] = spanMed("machine.new")
	m["apps.setup_s"] = spanMed("apps.setup")
	m["machine.run_s"] = spanMed("machine.run")
	wall := med(func(s *sample) float64 { return s.wall.Seconds() })
	m["trace.overhead_ratio"] = ratio(wall, refWall) - 1
	if w.check != nil {
		m["runner.exec_s"] = spanMed("runner.exec")
		m["runner.queue_wait_s"] = spanMed("runner.queue")
		m["runner.store_s"] = spanMed("runner.store")
		m["runner.warm_s"] = med(func(s *sample) float64 { return s.warm.Seconds() })
		m["runner.parallel_eff"] = ratio(m["runner.exec_s"], float64(w.parallel)*wall)
		m["runner.executed"] = med(func(s *sample) float64 { return float64(s.executed) })
		m["runner.cache_hits"] = med(func(s *sample) float64 { return float64(s.warmCacheHits) })
	}
	return m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// metricValue is one measured value with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// withUnits attaches the declared unit to each per-layer value.
func withUnits(sp *spec, values map[string]float64) map[string]metricValue {
	units := map[string]string{}
	for _, m := range append(append([]metricSpec(nil), sp.PerLayer...), sweepOnly...) {
		units[m.Name] = m.Unit
	}
	out := make(map[string]metricValue, len(values))
	for k, v := range values {
		out[k] = metricValue{Value: v, Unit: units[k]}
	}
	return out
}

// results is the full run's results.json.
type results struct {
	Seed       int64              `json:"seed"`
	GoVersion  string             `json:"go_version"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Workloads  []workloadResult   `json:"workloads"`
	Micro      map[string]summary `json:"micro"`
}

type workloadResult struct {
	Name      string                 `json:"name"`
	Digest    string                 `json:"digest"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	EndToEnd  map[string]summary     `json:"end_to_end"`
	PerLayer  map[string]metricValue `json:"per_layer"`
}

// printResults prints every metric of every workload with its unit.
func printResults(w io.Writer, sp *spec, res *results) {
	for _, wr := range res.Workloads {
		fmt.Fprintf(w, "%s  digest %s  %d timed iterations, %d failed\n", wr.Name, wr.Digest[:16], wr.Attempted, wr.Failed)
		for _, m := range append(append([]metricSpec(nil), sp.EndToEnd...), extraEndToEnd...) {
			s := wr.EndToEnd[m.Name]
			fmt.Fprintf(w, "  %-14s %12.6g %-7s [q1 %.6g, q3 %.6g] n=%d\n", m.Name, s.Median, m.Unit, s.Q1, s.Q3, s.N)
		}
		printLayer(w, "  ", wr.PerLayer)
	}
	for _, k := range []string{"handoff.ns_per_switch", "sim.kernel.ns_per_event"} {
		s := res.Micro[k]
		fmt.Fprintf(w, "micro %-24s %10.4g ns [q1 %.4g, q3 %.4g] n=%d\n", k, s.Median, s.Q1, s.Q3, s.N)
	}
}

// printLayer prints per-layer values sorted by name, one a line.
func printLayer(w io.Writer, prefix string, m map[string]metricValue) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "%s%-30s %14.6g %s\n", prefix, k, m[k].Value, m[k].Unit)
	}
}
