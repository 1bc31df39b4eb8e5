package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	publicoption "github.com/netecon-sim/publicoption"
	"github.com/netecon-sim/publicoption/internal/obs"
)

// serveCmd runs the HTTP query service: the scenario registry, the
// paper's figures included, behind a JSON API with a content-addressed
// equilibrium cache (see docs/SERVICE.md) and the observability surface of
// docs/OBSERVABILITY.md (structured logs, /metrics, /debug/events).
func serveCmd(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	workers := fs.Int("workers", 0, "max concurrent solves (0 = GOMAXPROCS)")
	cacheEntries := fs.Int("cache-entries", publicoption.DefaultServiceCacheEntries,
		"equilibrium cache LRU bound (negative disables caching)")
	pprofEnabled := fs.Bool("pprof", false,
		"expose net/http/pprof profiling endpoints under /debug/pprof/ (off by default; enable only on trusted networks)")
	logLevel := fs.String("log-level", "info", "log verbosity: debug, info, warn or error (debug includes per-request access lines)")
	logFormat := fs.String("log-format", obs.LogText, "log output format: text or json")
	trace := fs.Bool("trace", false,
		"echo each request's trace ID in response bodies (the X-Trace-Id header is always set)")
	events := fs.Int("events", 0,
		"flight recorder capacity: the last N solve events served at /debug/events (0 = default, negative disables)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return usageErrorf("pubopt serve: unexpected argument %q", fs.Arg(0))
	}
	if *workers < 0 {
		return usageErrorf("pubopt serve: -workers must be non-negative, got %d", *workers)
	}
	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		return usageErrorf("pubopt serve: %v", err)
	}
	logger, err := obs.NewLogger(os.Stderr, level, *logFormat)
	if err != nil {
		return usageErrorf("pubopt serve: %v", err)
	}

	// Serve until SIGINT/SIGTERM, then drain in-flight requests.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return serveRun(ctx, serveConfig{
		addr:         *addr,
		workers:      *workers,
		cacheEntries: *cacheEntries,
		pprofEnabled: *pprofEnabled,
		trace:        *trace,
		events:       *events,
		logger:       logger,
	})
}

// serveConfig carries the serve command's resolved settings into serveRun;
// tests inject a listener and a ready channel to exercise the full
// startup/shutdown path without flags, signals, or a fixed port.
type serveConfig struct {
	addr         string
	workers      int
	cacheEntries int
	pprofEnabled bool
	trace        bool
	events       int
	logger       *slog.Logger
	// listener, when non-nil, is served instead of binding addr.
	listener net.Listener
	// ready, when non-nil, receives the bound address once the server is
	// accepting connections.
	ready chan<- net.Addr
}

// serveRun builds the service, serves it until ctx is canceled, then drains
// in-flight requests. Startup and shutdown emit structured log lines so an
// operator can reconstruct the server's lifetime from its log alone.
func serveRun(ctx context.Context, cfg serveConfig) error {
	logger := cfg.logger
	if logger == nil {
		logger = obs.NopLogger()
	}
	var handler http.Handler = publicoption.NewService(publicoption.ServiceOptions{
		Workers:      cfg.workers,
		CacheEntries: cfg.cacheEntries,
		Logger:       logger,
		Trace:        cfg.trace,
		FlightEvents: cfg.events,
	})
	if cfg.pprofEnabled {
		handler = withPprof(handler)
		logger.Info("pprof profiling enabled", "path", "/debug/pprof/")
	}

	ln := cfg.listener
	if ln == nil {
		var err error
		ln, err = net.Listen("tcp", cfg.addr)
		if err != nil {
			return fmt.Errorf("serve: %w", err)
		}
	}
	server := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}

	start := time.Now()
	logger.Info("listening",
		"addr", ln.Addr().String(), "workers", cfg.workers,
		"cache_entries", cfg.cacheEntries, "trace", cfg.trace,
		"events", cfg.events, "pprof", cfg.pprofEnabled)
	if cfg.ready != nil {
		cfg.ready <- ln.Addr()
	}

	errCh := make(chan error, 1)
	go func() { errCh <- server.Serve(ln) }()

	select {
	case err := <-errCh:
		logger.Error("server failed", "error", err)
		return fmt.Errorf("serve: %w", err)
	case <-ctx.Done():
	}
	logger.Info("shutting down", "reason", "signal")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := server.Shutdown(shutdownCtx); err != nil {
		logger.Error("shutdown failed", "error", err)
		return fmt.Errorf("serve: shutdown: %w", err)
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Error("server failed", "error", err)
		return fmt.Errorf("serve: %w", err)
	}
	logger.Info("shutdown complete", "uptime_s", time.Since(start).Seconds())
	return nil
}

// withPprof mounts the net/http/pprof handlers at /debug/pprof/ in front of
// the service handler. Profiling is how hot-path regressions in the solve
// kernel are diagnosed in production (see docs/PERFORMANCE.md), but the
// endpoints expose goroutine stacks and heap contents, so they stay behind
// the explicit -pprof opt-in.
func withPprof(service http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", service)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
