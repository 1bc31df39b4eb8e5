// Package service is the long-running serving layer over the model: a
// stdlib-only HTTP JSON API exposing the scenario registry — the paper's
// figures included — and endpoints that solve equilibria on demand.
//
// Every solving endpoint is a thin view over one request pipeline
// (pipeline.go). The resolver maps the request's scenario — a registered
// name or an inline definition — and the kind of solve the endpoint does
// (1-D sweep, 2-D grid, dynamics) to the compiled scenario and its content
// key: the SHA-256 of its canonical JSON, so a name and an identical
// inline copy share cache entries. Single results then take one cached call through the
// content-addressed equilibrium cache (internal/cache), where identical
// concurrent requests coalesce onto one solve and a bounded worker pool
// keeps distinct solves from oversubscribing the CPU; NDJSON streams (grids
// cell by cell, simulations tick by tick) take one stream runner that serves
// cached units first and solves the rest in one pool slot. Both own
// the metrics, flight-recorder events and log lines, so every endpoint is
// metered the same way. The model is deterministic, so cached results
// never go stale.
//
// Endpoints:
//
//	GET  /v1/scenarios              list the named scenarios
//	GET  /v1/scenarios/{name}       one scenario's full JSON definition
//	POST /v1/runs                   solve a named or inline 1-D scenario
//	POST /v1/batch                  stream a scenario list or a 2-D grid
//	                                as NDJSON, grid cells cached per cell;
//	                                "refine": true streams an adaptive
//	                                refinement run instead of dense cells
//	GET  /v1/query                  solve-free point query against a grid's
//	                                cached refinement surrogate (POST works
//	                                too, for inline grids)
//	POST /v1/simulate               stream a dynamics scenario tick by tick
//	                                as NDJSON, ticks cached per tick
//	GET  /healthz                   liveness probe
//	GET  /metrics                   Prometheus text-format metrics
//	GET  /debug/events              flight recorder: the last N solve events
//
// Every request gets a trace ID (X-Trace-Id header) that correlates its
// access log line, solve log line, and flight-recorder events; see
// docs/OBSERVABILITY.md for the full telemetry reference and
// docs/SERVICE.md for the endpoint reference with examples.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"strings"
	"time"

	"github.com/netecon-sim/publicoption/internal/cache"
	"github.com/netecon-sim/publicoption/internal/obs"
	"github.com/netecon-sim/publicoption/internal/scenario"
	"github.com/netecon-sim/publicoption/internal/sweep"
)

// DefaultCacheEntries is the LRU bound used when Options.CacheEntries is 0.
// A dense grid cell from /v1/batch occupies one entry, so the bound holds
// many built-in grids' cells alongside full run results; a deployment
// replaying more cells than this should raise it to at least the working
// set's cell count, or warm re-runs re-solve evicted cells.
const DefaultCacheEntries = 2048

// DefaultFlightEvents is the flight recorder's ring capacity when
// Options.FlightEvents is 0.
const DefaultFlightEvents = 256

// maxRequestBody bounds run-request bodies (inline scenarios included);
// 1 MiB comfortably fits any plausible explicit CP population.
const maxRequestBody = 1 << 20

// Options configures a Server.
type Options struct {
	// Workers bounds how many solves may execute concurrently (the cache's
	// worker pool). 0 means GOMAXPROCS. Each solve's internal parallelism
	// is scaled down so pool × per-solve workers ≈ GOMAXPROCS.
	Workers int
	// CacheEntries is the equilibrium cache's LRU bound. 0 means
	// DefaultCacheEntries; negative disables caching (singleflight and the
	// worker pool remain).
	CacheEntries int
	// Logger receives structured logs: access lines at debug, cold-solve
	// lines at info, failures at warn/error. Nil discards everything.
	Logger *slog.Logger
	// Trace echoes each request's trace ID in response bodies: the "trace"
	// field of run responses and batch NDJSON frames. The X-Trace-Id header
	// and the flight recorder carry trace IDs regardless.
	Trace bool
	// FlightEvents is the flight recorder's ring capacity (the last N solve
	// events, served at GET /debug/events). 0 means DefaultFlightEvents;
	// negative disables the recorder.
	FlightEvents int
}

// Server is the HTTP service. Construct with New; it implements
// http.Handler and is safe for concurrent use.
type Server struct {
	mux          *http.ServeMux
	store        *cache.Store
	metrics      *metrics
	logger       *slog.Logger
	start        time.Time
	solveWorkers int // default per-solve parallelism

	// Observability state: the server-wide solver-telemetry sink (rendered
	// as pubopt_solver_* counters), the bounded flight recorder behind
	// GET /debug/events (nil when disabled), whether responses echo trace
	// IDs, and the build stamp for pubopt_build_info.
	counters obs.Counters
	// refineCounters aggregates adaptive-refinement telemetry across runs
	// (rendered as pubopt_refine_* counters).
	refineCounters obs.RefineCounters
	recorder       *obs.Recorder
	trace          bool
	build          obs.BuildInfo

	// Registry data precomputed at startup so the hot paths never re-derive
	// it: the registries are immutable and scenario.All/Get deep-copy
	// through JSON on every call.
	scenarioInfos []ScenarioInfo
	named         map[string]*resolved // every registered scenario, resolved
	// inline memoizes recently resolved inline grid and simulation
	// definitions (resolveInline).
	inline *inlineMemo

	// Runner indirection, overridable in tests to count or stub solves.
	// stats receives the run's solver telemetry (nil-safe).
	runScenario func(s *scenario.Scenario, workers int, stats *obs.Counters) ([]*sweep.Table, error)
}

// New builds a Server with its cache, worker pool and routes.
func New(opts Options) *Server {
	pool := opts.Workers
	if pool <= 0 {
		pool = runtime.GOMAXPROCS(0)
	}
	entries := opts.CacheEntries
	if entries == 0 {
		entries = DefaultCacheEntries
	} else if entries < 0 {
		entries = 0
	}
	logger := opts.Logger
	if logger == nil {
		logger = obs.NopLogger()
	}
	events := opts.FlightEvents
	if events == 0 {
		events = DefaultFlightEvents
	}
	perSolve := runtime.GOMAXPROCS(0) / pool
	if perSolve < 1 {
		perSolve = 1
	}
	s := &Server{
		mux:          http.NewServeMux(),
		store:        cache.New(entries, pool),
		metrics:      newMetrics(),
		logger:       logger,
		start:        time.Now(),
		solveWorkers: perSolve,
		recorder:     obs.NewRecorder(events),
		trace:        opts.Trace,
		build:        obs.Build(),
		runScenario: func(sc *scenario.Scenario, workers int, stats *obs.Counters) ([]*sweep.Table, error) {
			return sc.Run(scenario.RunOptions{Workers: workers, Stats: stats})
		},
		named:  make(map[string]*resolved),
		inline: newInlineMemo(),
	}
	for _, sc := range scenario.All() {
		s.scenarioInfos = append(s.scenarioInfos, ScenarioInfo{Name: sc.Name, Title: sc.Title, Reference: sc.Reference, Grid: sc.IsGrid(), Dynamic: sc.IsDynamic()})
		res, err := newResolved(sc, true)
		if err != nil {
			panic("service: resolving built-in scenario: " + err.Error())
		}
		s.named[sc.Name] = res
	}
	s.handle("GET /v1/scenarios", s.handleListScenarios)
	s.handle("GET /v1/scenarios/{name}", s.handleGetScenario)
	s.handle("POST /v1/runs", s.handleRun)
	s.handle("POST /v1/batch", s.handleBatch)
	s.handle("GET /v1/query", s.handleQueryGet)
	s.handle("POST /v1/query", s.handleQueryPost)
	s.handle("POST /v1/simulate", s.handleSimulate)
	s.handle("GET /healthz", s.handleHealthz)
	s.handle("GET /metrics", s.handleMetrics)
	s.handle("GET /debug/events", s.handleEvents)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// CacheStats exposes the equilibrium cache's counters (for tests and ops).
func (s *Server) CacheStats() cache.Stats { return s.store.Stats() }

// handle registers a routed handler wrapped with the observability
// middleware: a fresh trace ID on the request context (echoed in the
// X-Trace-Id header), request counting labeled by the route pattern so
// metrics cardinality stays bounded, a debug-level access log line, and
// panic recovery — a panicking handler logs with its trace ID and answers
// 500 instead of tearing down the connection with no record.
func (s *Server) handle(pattern string, h http.HandlerFunc) {
	route := pattern
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := obs.NewTraceID()
		r = r.WithContext(obs.WithTraceID(r.Context(), id))
		w.Header().Set("X-Trace-Id", id)
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		defer func() {
			if p := recover(); p != nil {
				s.logger.Error("handler panicked",
					"route", route, "trace", id, "panic", fmt.Sprint(p))
				if !sw.wrote {
					writeError(sw, http.StatusInternalServerError, "internal error (trace %s)", id)
				}
				s.metrics.observeRequest(route, http.StatusInternalServerError)
				return
			}
			s.metrics.observeRequest(route, sw.code)
			s.logger.Debug("request",
				"method", r.Method, "path", r.URL.Path, "status", sw.code,
				"elapsed_ms", float64(time.Since(start).Microseconds())/1e3, "trace", id)
		}()
		h(sw, r)
	})
}

type statusWriter struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.wrote = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(b)
}

// Flush forwards streaming flushes (the batch NDJSON writer needs them)
// through the middleware wrapper, which would otherwise hide the underlying
// ResponseWriter's http.Flusher.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// ---------------------------------------------------------------------------
// Response shapes.

// ScenarioInfo is one row of GET /v1/scenarios.
type ScenarioInfo struct {
	Name      string `json:"name"`
	Title     string `json:"title"`
	Reference string `json:"reference,omitempty"`
	// Grid marks 2-D grid scenarios: they are solved via POST /v1/batch
	// ({"grid": name}), and POST /v1/runs rejects them.
	Grid bool `json:"grid,omitempty"`
	// Dynamic marks dynamics scenarios: they are simulated via
	// POST /v1/simulate, and POST /v1/runs and /v1/batch reject them.
	Dynamic bool `json:"dynamic,omitempty"`
}

// RunResult is the cacheable outcome of one solve.
type RunResult struct {
	Kind   string         `json:"kind"` // always "scenario"
	Name   string         `json:"name"`
	Title  string         `json:"title"`
	Tables []*sweep.Table `json:"tables"`
}

// RunResponse is what run endpoints return: the (possibly cached) result
// plus how the cache satisfied the request and the request's wall time.
// Trace carries the request's trace ID when the server runs with
// Options.Trace (it always travels in the X-Trace-Id header).
type RunResponse struct {
	RunResult
	Cache     string  `json:"cache"` // "hit", "miss" or "coalesced"
	ElapsedMS float64 `json:"elapsed_ms"`
	Trace     string  `json:"trace,omitempty"`
}

// ---------------------------------------------------------------------------
// Handlers.

func (s *Server) handleListScenarios(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.scenarioInfos)
}

func (s *Server) handleGetScenario(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	res, ok := s.named[name]
	if !ok {
		writeError(w, http.StatusNotFound, "unknown scenario %q", name)
		return
	}
	writeJSON(w, http.StatusOK, res.sc)
}

// runRequest is the body of POST /v1/runs.
type runRequest struct {
	// Scenario names a registered scenario; ScenarioJSON inlines a full
	// scenario definition (the same schema as docs/SCENARIOS.md). Exactly
	// one must be set.
	Scenario     string          `json:"scenario,omitempty"`
	ScenarioJSON json.RawMessage `json:"scenario_json,omitempty"`
	// Workers overrides the solve's internal parallelism. Execution-only:
	// it does not participate in the cache key.
	Workers int `json:"workers,omitempty"`
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var req runRequest
	if err := decodeJSONBody(w, r, &req); err != nil {
		writeError(w, bodyErrorStatus(err), "%v", err)
		return
	}
	res, code, err := s.resolve(kindRun, ref{name: req.Scenario, inline: req.ScenarioJSON})
	if err != nil {
		writeError(w, code, "%v", err)
		return
	}
	u, status, elapsedMS, err := s.runScenarioCached(r.Context(), res, s.workers(req.Workers))
	if err != nil {
		writeError(w, http.StatusInternalServerError, "solve failed: %v", err)
		return
	}
	b, err := appendRunResponse(nil, u, status, elapsedMS, traceEcho(s.echo(r.Context())))
	if err != nil {
		// A result that cannot serialize (e.g. NaN from a degenerate
		// market) is a server-side failure, not a client one; it stays
		// cached, so it is solved once, not once per request.
		writeError(w, http.StatusInternalServerError, "serializing response: %v", err)
		return
	}
	writeBody(w, http.StatusOK, b)
}

// runScenarioCached solves a resolved 1-D scenario through the cache and
// returns the encoded result, how the cache satisfied the request and its
// wall time in milliseconds: what the run envelope (RunResponse) carries.
// Its content address is the canonical scenario, so a named scenario and
// an identical inline copy share one entry. A registered scenario is only
// materialized — a deep copy of the shared registry entry — on a miss.
func (s *Server) runScenarioCached(ctx context.Context, res *resolved, workers int) (*runUnit, cache.Status, float64, error) {
	val, status, elapsed, err := s.cached(ctx, "run", res.sc.Name, res.key, func(stats *obs.Counters) (any, error) {
		sc := res.sc
		if res.named {
			sc, _ = scenario.Get(sc.Name) // always found: the registry is immutable
		}
		tables, err := s.runScenario(sc, workers, stats)
		if err != nil {
			return nil, err
		}
		return newRunUnit(&RunResult{Kind: "scenario", Name: sc.Name, Title: sc.Title, Tables: tables}), nil
	})
	if err != nil {
		return nil, status, 0, err
	}
	return val.(*runUnit), status, ms(elapsed), nil
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"uptime_seconds": time.Since(s.start).Seconds(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder
	s.metrics.render(&b, s.store.Stats(), s.counters.Snapshot(),
		s.refineCounters.Snapshot(), s.build,
		s.recorder.Recorded(), time.Since(s.start).Seconds())
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	io.WriteString(w, b.String())
}

// handleEvents serves the flight recorder: the last N solve spans (runs,
// grids, simulations and solved units) with trace IDs, cache outcomes and
// solver-telemetry deltas, oldest first. With the recorder disabled
// (Options.FlightEvents < 0) capacity is 0 and events null.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"capacity": s.recorder.Cap(),
		"recorded": s.recorder.Recorded(),
		"events":   s.recorder.Events(),
	})
}

// ---------------------------------------------------------------------------
// JSON plumbing.

// errBodyTooLarge marks requests whose body exceeded maxRequestBody; the
// handlers map it to 413 instead of the generic 400.
var errBodyTooLarge = fmt.Errorf("request body exceeds the %d-byte limit", maxRequestBody)

// decodeJSONBody parses the request body into v, rejecting empty bodies,
// unknown fields, trailing garbage, and bodies over maxRequestBody
// (errBodyTooLarge).
func decodeJSONBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return errBodyTooLarge
		}
		if errors.Is(err, io.EOF) {
			return fmt.Errorf("empty request body")
		}
		return fmt.Errorf("parsing request body: %w", err)
	}
	if dec.More() {
		return fmt.Errorf("request body has trailing data after the JSON object")
	}
	return nil
}

// bodyErrorStatus picks the status code for a decodeJSONBody failure.
func bodyErrorStatus(err error) int {
	if errors.Is(err, errBodyTooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		// A result that cannot serialize (e.g. NaN from a degenerate
		// market) is a server-side failure, not a client one.
		writeError(w, http.StatusInternalServerError, "serializing response: %v", err)
		return
	}
	writeBody(w, code, b)
}

// writeBody writes an encoded JSON body.
func writeBody(w http.ResponseWriter, code int, b []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(b)
}

// errorResponse is the uniform error body.
type errorResponse struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	b, _ := json.Marshal(errorResponse{Error: fmt.Sprintf(format, args...)})
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(b)
}
