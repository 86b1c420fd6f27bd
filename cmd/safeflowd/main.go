// Command safeflowd runs the SafeFlow analyzer as a long-lived HTTP
// service with a persistent shared cache: one daemon process keeps the
// in-memory parse cache and phase-3 states hot across requests, and the
// content-addressed disk cache (shared with safeflow CLI processes
// pointed at the same -cachedir) keeps parsed units warm across restarts.
//
// Usage:
//
//	safeflowd [flags]
//
// Flags:
//
//	-addr a          listen address (default 127.0.0.1:8787)
//	-cachedir d      persistent cache directory (default: the per-user
//	                 cache dir; "off" disables the disk cache)
//	-cache-size n    disk-cache size budget in bytes (0 = default 256 MiB)
//	-concurrency n   max analyses running at once (0 = GOMAXPROCS)
//	-queue n         max requests waiting for a slot (0 = 2×concurrency)
//	-timeout d       default per-request analysis timeout (default 60s)
//	-max-timeout d   cap on request-supplied timeouts (default 5m)
//	-workers n       per-analysis pipeline workers (0 = GOMAXPROCS)
//	-local-paths     allow requests to name files on this host
//	-drain-timeout d grace period for in-flight requests on shutdown
//	-remote-cache u  base URL of a shared sfcached tier; the disk cache
//	                 becomes the local fallback tier behind it
//	-remote-timeout d per-op timeout against the remote tier
//
// With -remote-cache, every analysis reads and writes the shared
// sfcached store through a fault-isolated client: per-op timeouts,
// bounded retry with exponential backoff and jitter, and a circuit
// breaker that trips to the local disk tier on sustained failure.
// Remote-cache outage, slowness, or corruption never fails a request
// and never changes a byte of any response — it only costs cache hits.
//
// Endpoints:
//
//	POST /v1/analyze  run one analysis; the JSON body names the system
//	                  and supplies inline sources (or, with -local-paths,
//	                  a host directory or file list). The response body
//	                  is byte-identical to `safeflow -json` on the same
//	                  inputs. 429 + Retry-After signals backpressure.
//	GET  /healthz     liveness; 503 once draining
//	GET  /metricsz    request counters, aggregated run metrics, and
//	                  disk-cache statistics
//
// SIGINT/SIGTERM starts a graceful drain: health flips to 503, new
// analyses are refused, and in-flight requests get -drain-timeout to
// finish before the listener closes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"safeflow/internal/daemon"
	"safeflow/internal/diskcache"
	"safeflow/internal/remotecache"
	"safeflow/pkg/safeflow"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, nil, nil))
}

// run is the testable entry point. When ready is non-nil the bound
// listen address is sent on it once the server is accepting; closing
// stop triggers the same graceful drain as SIGTERM.
func run(args []string, stdout, stderr io.Writer, ready chan<- string, stop <-chan struct{}) int {
	fs := flag.NewFlagSet("safeflowd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr          = fs.String("addr", "127.0.0.1:8787", "listen address")
		cacheDir      = fs.String("cachedir", "", "persistent cache directory (default: per-user cache dir; \"off\" disables)")
		cacheSize     = fs.Int64("cache-size", 0, "disk-cache size budget in bytes (0 = default)")
		concurrency   = fs.Int("concurrency", 0, "max analyses running at once (0 = GOMAXPROCS)")
		queue         = fs.Int("queue", 0, "max requests waiting for a slot (0 = 2×concurrency)")
		timeout       = fs.Duration("timeout", 60*time.Second, "default per-request analysis timeout")
		maxTimeout    = fs.Duration("max-timeout", 5*time.Minute, "cap on request-supplied timeouts")
		workers       = fs.Int("workers", 0, "per-analysis pipeline workers (0 = GOMAXPROCS)")
		localPaths    = fs.Bool("local-paths", false, "allow requests to name files on this host")
		drainTimeout  = fs.Duration("drain-timeout", 30*time.Second, "grace period for in-flight requests on shutdown")
		remoteCache   = fs.String("remote-cache", "", "base URL of a shared sfcached tier (e.g. http://10.0.0.7:8788)")
		remoteTimeout = fs.Duration("remote-timeout", 2*time.Second, "per-op timeout against the remote cache tier")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "safeflowd: unexpected argument %q\n", fs.Arg(0))
		return 2
	}

	cfg := daemon.Config{
		Concurrency:     *concurrency,
		QueueDepth:      *queue,
		DefaultTimeout:  *timeout,
		MaxTimeout:      *maxTimeout,
		Workers:         *workers,
		AllowLocalPaths: *localPaths,
	}
	cacheDesc := "disabled"
	if *cacheDir != "off" {
		dir := *cacheDir
		if dir == "" {
			var err error
			dir, err = safeflow.DefaultCacheDir()
			if err != nil {
				fmt.Fprintf(stderr, "safeflowd: resolving default -cachedir: %v\n", err)
				return 2
			}
		}
		dc, err := safeflow.OpenDiskCache(dir, *cacheSize)
		if err != nil {
			fmt.Fprintf(stderr, "safeflowd: opening -cachedir: %v\n", err)
			return 2
		}
		cfg.Cache = dc
		cacheDesc = dc.Dir()
	}
	if *remoteCache != "" {
		client, err := remotecache.New(remotecache.Config{
			BaseURL:   *remoteCache,
			OpTimeout: *remoteTimeout,
		})
		if err != nil {
			fmt.Fprintf(stderr, "safeflowd: -remote-cache: %v\n", err)
			return 2
		}
		var local diskcache.CacheBackend
		if cfg.Cache != nil {
			local = cfg.Cache
		}
		cfg.Remote = remotecache.NewTiered(client, local)
		cacheDesc += " + remote " + *remoteCache
	}

	srv := daemon.New(cfg)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "safeflowd: listen on -addr %s: %v\n", *addr, err)
		return 2
	}
	httpSrv := &http.Server{Handler: srv.Handler()}

	fmt.Fprintf(stdout, "safeflowd listening on %s (cache: %s)\n", ln.Addr(), cacheDesc)
	if ready != nil {
		ready <- ln.Addr().String()
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)

	select {
	case sig := <-sigCh:
		fmt.Fprintf(stdout, "safeflowd: %v received, draining\n", sig)
	case <-stop:
		fmt.Fprintln(stdout, "safeflowd: stop requested, draining")
	case err := <-serveErr:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(stderr, "safeflowd: %v\n", err)
			return 1
		}
		return 0
	}

	srv.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		fmt.Fprintf(stderr, "safeflowd: drain incomplete: %v\n", err)
		return 1
	}
	// The listener is quiet: close every open incremental session so no
	// session state is abandoned mid-update (Close waits for in-flight
	// updates, bounded by what is left of the drain budget).
	if n, err := srv.CloseSessions(ctx); err != nil {
		fmt.Fprintf(stderr, "safeflowd: session close incomplete after %d session(s): %v\n", n, err)
		return 1
	} else if n > 0 {
		fmt.Fprintf(stdout, "safeflowd: closed %d incremental session(s)\n", n)
	}
	fmt.Fprintln(stdout, "safeflowd: drained")
	return 0
}
