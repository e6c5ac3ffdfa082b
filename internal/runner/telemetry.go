package runner

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"
)

// Telemetry is an opt-in HTTP server exposing a live Runner's progress:
//
//	/metrics      Prometheus text exposition of the job counters
//	/progress     streaming JSON snapshots (one object per line)
//	/debug/pprof  the standard Go profiling endpoints
//
// It reads counters only through the snapshot function it was given, so
// it perturbs nothing: no simulation code knows the server exists.
type Telemetry struct {
	ln   net.Listener
	srv  *http.Server
	tick time.Duration // /progress sampling period (tests shorten it)

	// mu serializes snapshots against Close: src calls run under the
	// read lock, and Close detaches src under the write lock, so once
	// Close returns no handler can observe a torn-down metrics source.
	mu  sync.RWMutex
	src func() Metrics // nil after Close
}

// ServeTelemetry starts the telemetry server on addr (host:port; an
// empty host or port 0 are allowed and resolved by the listener). src is
// called per request for a Metrics snapshot — pass Runner.Metrics. The
// server runs until Close.
func ServeTelemetry(addr string, src func() Metrics) (*Telemetry, error) {
	return serveTelemetry(addr, src, time.Second)
}

func serveTelemetry(addr string, src func() Metrics, tick time.Duration) (*Telemetry, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("runner: telemetry listen: %w", err)
	}
	t := &Telemetry{ln: ln, src: src, tick: tick}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", t.handleMetrics)
	mux.HandleFunc("/progress", t.handleProgress)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	t.srv = &http.Server{Handler: mux}
	go t.srv.Serve(ln)
	return t, nil
}

// Addr returns the bound listen address (useful with port 0).
func (t *Telemetry) Addr() string { return t.ln.Addr().String() }

// Close shuts the server down in scrape-safe order: first the listener
// and every open connection (dropping /progress streams), then the
// metrics source is detached, so a caller that tears down the Runner
// right after Close cannot be scraped mid-teardown. Returns the
// listener's close error rather than swallowing it.
func (t *Telemetry) Close() error {
	// srv.Close closes the listener first and then active connections;
	// its return value is exactly the listener's Close error.
	err := t.srv.Close()
	t.mu.Lock()
	t.src = nil
	t.mu.Unlock()
	return err
}

// snapshot takes a metrics snapshot, or reports false once Close has
// detached the source.
func (t *Telemetry) snapshot() (Metrics, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.src == nil {
		return Metrics{}, false
	}
	return t.src(), true
}

// handleMetrics writes the Prometheus text exposition of the counters.
func (t *Telemetry) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	m, ok := t.snapshot()
	if !ok {
		http.Error(w, "telemetry closed", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	writePrometheus(w, m)
}

// writePrometheus renders a Metrics snapshot in the Prometheus text
// exposition format (version 0.0.4): gauges for the in-flight queue
// state, counters for totals.
func writePrometheus(w io.Writer, m Metrics) {
	put := func(name, kind, help string, v any) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %v\n", name, help, name, kind, name, v)
	}
	put("latsim_jobs_queued", "gauge", "Jobs waiting for a worker.", m.Queued)
	put("latsim_jobs_running", "gauge", "Jobs currently executing.", m.Running)
	put("latsim_jobs_done", "gauge", "Jobs finished (executed, cached or failed).", m.Done())
	put("latsim_jobs_submitted_total", "counter", "Submit calls, including duplicates.", m.Submitted)
	put("latsim_jobs_deduped_total", "counter", "Submissions coalesced onto an existing task.", m.Deduped)
	put("latsim_jobs_executed_total", "counter", "Jobs simulated to completion.", m.Executed)
	put("latsim_jobs_cache_hits_total", "counter", "Jobs satisfied from the persistent cache.", m.CacheHits)
	put("latsim_jobs_cache_misses_total", "counter", "Persistent-cache probes that found no entry.", m.CacheMisses)
	put("latsim_jobs_failed_total", "counter", "Jobs that errored, panicked or timed out.", m.Failed)
	put("latsim_sim_cycles_total", "counter", "Simulated cycles over executed jobs.", m.SimCycles)
	put("latsim_sim_events_total", "counter", "Discrete events fired over executed jobs.", m.SimEvents)
	put("latsim_job_wall_seconds_total", "counter", "Summed per-job wall-clock execution time.",
		m.WallTime.Seconds())
}

// handleProgress streams Metrics snapshots as newline-delimited JSON,
// one per tick, until the client disconnects or the server closes.
func (t *Telemetry) handleProgress(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	ticker := time.NewTicker(t.tick)
	defer ticker.Stop()
	for {
		m, ok := t.snapshot()
		if !ok {
			return
		}
		if err := enc.Encode(m); err != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
		select {
		case <-r.Context().Done():
			return
		case <-ticker.C:
		}
	}
}
