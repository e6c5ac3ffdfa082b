// Command sweepd serves the sweep control plane: a long-lived HTTP
// service that runs simulation sweeps on behalf of many clients over
// one shared engine, deduplicating identical work across them.
//
// Submit a figure and fetch its result (byte-identical to cmd/figures):
//
//	sweepd -listen 127.0.0.1:8080 -cache-dir ~/.cache/latsim &
//	curl -d '{"experiment": "fig2"}' http://127.0.0.1:8080/v1/sweeps
//	curl http://127.0.0.1:8080/v1/sweeps/s1          # status
//	curl http://127.0.0.1:8080/v1/sweeps/s1/result   # rendered figure
//
// Obs-enabled sweeps ("obs": true, optionally "span_rate" to override
// the -span-rate default) additionally serve their merged observability
// at /v1/sweeps/{id}/report, the dashboard pane document at
// /v1/sweeps/{id}/obs, and a judged comparison against another sweep at
// /v1/sweeps/{id}/diff?base=<id>; the /dashboard page renders the
// breakdown, stall waterfall and cross-sweep verdicts live.
//
// On SIGTERM or SIGINT the service shuts its HTTP server down, cancels
// the sweeps still running and exits. With -cache-dir set, every
// simulation that finished is already in the persistent cache, so
// resubmitting a canceled sweep after a restart re-runs only the rest.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"latsim/internal/sweepd"
)

func main() {
	var (
		listen   = flag.String("listen", "127.0.0.1:8080", "address to serve the API on (port 0 picks a free port)")
		jobs     = flag.Int("jobs", 0, "concurrent simulations (0 = GOMAXPROCS)")
		cacheDir = flag.String("cache-dir", "", "persistent result cache directory (empty disables)")
		cacheMax = flag.Int64("cache-max-bytes", 0, "cap the cache's on-disk size, evicting least-recently-used results (0 = unbounded)")
		timeout  = flag.Duration("timeout", 0, "wall-clock limit per job (0 = none)")
		spanRate = flag.Float64("span-rate", 0, "default span-tracing sample rate for obs sweeps (0 = 1/64; a sweep's span_rate overrides)")
		verbose  = flag.Bool("v", false, "stream engine progress to stderr")
	)
	flag.Parse()
	if err := run(*listen, sweepd.Options{
		Workers:       *jobs,
		CacheDir:      *cacheDir,
		CacheMaxBytes: *cacheMax,
		Timeout:       *timeout,
		ObsSpanRate:   *spanRate,
	}, *verbose); err != nil {
		fmt.Fprintln(os.Stderr, "sweepd:", err)
		os.Exit(1)
	}
}

func run(listen string, opts sweepd.Options, verbose bool) error {
	if verbose {
		opts.Trace = os.Stderr
	}
	svc, err := sweepd.New(opts)
	if err != nil {
		return err
	}
	defer svc.Close()

	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return err
	}
	// The bound address goes to stderr so scripts using port 0 can
	// discover it.
	fmt.Fprintf(os.Stderr, "sweepd: listening on %s\n", ln.Addr())

	srv := &http.Server{Handler: svc.Handler()}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-done:
		return err
	case got := <-sig:
		fmt.Fprintf(os.Stderr, "sweepd: %v: shutting down\n", got)
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		srv.Close()
	}
	<-done
	return nil
}
