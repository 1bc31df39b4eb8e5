package service

import (
	"context"
	"encoding/json"
	"net/http"
	"strconv"
	"time"

	"github.com/netecon-sim/publicoption/internal/cache"
	"github.com/netecon-sim/publicoption/internal/obs"
	"github.com/netecon-sim/publicoption/internal/refine"
	"github.com/netecon-sim/publicoption/internal/scenario"
)

// GET/POST /v1/query — solve-free point queries over a grid scenario.
//
// The first query for a grid builds its adaptive-refinement surrogate
// (internal/refine) through the worker pool and caches it under the
// scenario's content address; every later query for any point of that grid
// evaluates the cached surrogate — a few bilinear patches, zero kernel
// solves. The surrogate carries a solver-verified error bound: when
// verification failed (or was disabled with "probes": -1), queries fall
// back to one cached kernel solve per distinct point instead of serving
// unverified interpolation, so the answer is always either within the
// configured tolerance or exact.
//
// The unit is a cell, a pure function of its coordinates: the surrogate's
// lattice points and probes and the fallback solves share the equilibrium
// cache's cell namespace with POST /v1/batch's grid cells, so a dense
// batch warms the surrogate build's seed knots and a fallback at a knot,
// and vice versa.

// queryRequest is the body of POST /v1/query; the GET form takes the same
// fields as URL parameters (?grid=name&x=…&y=…).
type queryRequest struct {
	// Grid names a registered 2-D grid scenario; GridJSON inlines one.
	// Exactly one must be set.
	Grid     string          `json:"grid,omitempty"`
	GridJSON json.RawMessage `json:"grid_json,omitempty"`
	// X and Y are the query point in resolved model units (the units the
	// batch header's xs/ys arrays are in).
	X float64 `json:"x"`
	Y float64 `json:"y"`
	// Workers overrides the surrogate build's internal parallelism.
	// Execution-only: it does not participate in the cache key.
	Workers int `json:"workers,omitempty"`
}

// QueryResponse is the answer to one point query.
type QueryResponse struct {
	Grid string  `json:"grid"`
	X    float64 `json:"x"`
	Y    float64 `json:"y"`
	// Values holds one scalar per output layer.
	Values map[string]float64 `json:"values"`
	// Source is "surrogate" when the interpolating surrogate answered
	// under its verified error bound, "solve" when the server fell back to
	// a (cached) kernel solve because verification did not hold.
	Source string `json:"source"`
	// Verified, MaxError and Tolerance describe the surrogate's error
	// contract: Verified means probing ran and the worst observed
	// normalized error (MaxError) stayed within Tolerance.
	Verified  bool    `json:"verified"`
	MaxError  float64 `json:"max_error"`
	Tolerance float64 `json:"tolerance"`
	// Cache reports how the authoritative artifact for this answer was
	// obtained: the surrogate itself ("hit"/"miss"/"coalesced"), or the
	// fallback point solve when Source is "solve".
	Cache     string  `json:"cache"`
	ElapsedMS float64 `json:"elapsed_ms"`
	Trace     string  `json:"trace,omitempty"`
}

func (s *Server) handleQueryPost(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	if err := decodeJSONBody(w, r, &req); err != nil {
		writeError(w, bodyErrorStatus(err), "%v", err)
		return
	}
	s.serveQuery(w, r, &req)
}

func (s *Server) handleQueryGet(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	req := queryRequest{Grid: q.Get("grid")}
	for _, p := range []struct {
		name string
		dst  *float64
	}{{"x", &req.X}, {"y", &req.Y}} {
		raw := q.Get(p.name)
		if raw == "" {
			writeError(w, http.StatusBadRequest, "missing required parameter %q (try /v1/query?grid=name&x=…&y=…)", p.name)
			return
		}
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "parameter %q: %v", p.name, err)
			return
		}
		*p.dst = v
	}
	s.serveQuery(w, r, &req)
}

// serveQuery answers one point query: resolve the grid, get-or-build its
// surrogate through the cache, evaluate — falling back to a cached kernel
// solve when the surrogate's error bound is not verified.
func (s *Server) serveQuery(w http.ResponseWriter, r *http.Request, req *queryRequest) {
	res, code, err := s.resolve(kindGrid, ref{name: req.Grid, inline: req.GridJSON})
	if err != nil {
		writeError(w, code, "%v", err)
		return
	}
	job := res.job
	start := time.Now()
	surr, status, err := s.surrogate(r.Context(), res, s.workers(req.Workers))
	if err != nil {
		writeError(w, http.StatusInternalServerError, "building surrogate: %v", err)
		return
	}
	vals, err := surr.Values(req.X, req.Y)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	resp := QueryResponse{
		Grid: res.sc.Name, X: req.X, Y: req.Y,
		Values:    job.ValuesMap(vals),
		Source:    "surrogate",
		Verified:  surr.Verified(),
		MaxError:  surr.MaxError(),
		Tolerance: surr.Tolerance(),
		Cache:     status.String(),
	}
	if !surr.Verified() {
		// The error bound does not hold (verification failed or was
		// disabled): answer with one cached point solve instead of
		// unverified interpolation.
		vals, status, err := s.solvePoint(r.Context(), res, req.X, req.Y)
		if err != nil {
			writeError(w, http.StatusInternalServerError, "fallback solve: %v", err)
			return
		}
		resp.Values = vals
		resp.Source = "solve"
		resp.Cache = status.String()
	}
	s.metrics.observeQuery(resp.Source)
	resp.ElapsedMS = ms(time.Since(start))
	resp.Trace = s.echo(r.Context())
	writeJSON(w, http.StatusOK, resp)
}

// surrogate returns the grid's refined surrogate, building it through the
// cache on first need.
func (s *Server) surrogate(ctx context.Context, res *resolved, workers int) (*refine.Result, cache.Status, error) {
	val, status, _, err := s.cached(ctx, "query", res.sc.Name, res.key, func(stats *obs.Counters) (any, error) {
		return s.refineGrid(ctx, res, stats, refine.Options{Workers: workers})
	})
	if err != nil {
		return nil, status, err
	}
	return val.(*refine.Result), status, nil
}

// refineGrid runs the grid's adaptive refinement with its points on the
// equilibrium cache, so it shares cells with dense POST /v1/batch runs and
// query fallbacks, and adds its stats to the server's refine counters.
func (s *Server) refineGrid(ctx context.Context, res *resolved, stats *obs.Counters, opts refine.Options) (*refine.Result, error) {
	job, key := res.job, res.cellKey
	// The engine calls both hooks on its Run goroutine and never mutates
	// the values it is handed.
	opts.Lookup = func(x, y float64) ([]float64, bool) {
		val, ok := s.store.Lookup(key(x, y))
		if !ok {
			return nil, false
		}
		return val.(*cellUnit).vals, true
	}
	opts.Store = func(x, y float64, vals []float64) { s.store.Put(key(x, y), newCellUnit(job, vals)) }
	prob, flush := job.RefineProblem(stats)
	surr, err := refine.Run(ctx, prob, job.RefineSpec(), opts)
	flush()
	if err != nil {
		return nil, err
	}
	s.refineCounters.Add(surr.Stats())
	return surr, nil
}

// solvePoint solves the grid's cell at (x, y) through the equilibrium
// cache — the unverified-surrogate fallback of /v1/query. A miss solves on
// a GridWorker from the grid's pool, whose buffers stay grown from earlier
// misses; a worker resets its warm state before every cell, so the values
// are a fresh worker's.
func (s *Server) solvePoint(ctx context.Context, res *resolved, x, y float64) (map[string]float64, cache.Status, error) {
	job := res.job
	val, status, _, err := s.cached(ctx, "cell", res.sc.Name, res.cellKey(x, y), func(stats *obs.Counters) (any, error) {
		w := res.workers.Get().(*scenario.GridWorker)
		defer res.workers.Put(w)
		before := w.Stats()
		vals, _ := job.ValuesSlice(w.SolveAt(x, y))
		stats.Add(w.Stats().Since(before))
		return newCellUnit(job, vals), nil
	})
	if err != nil {
		return nil, status, err
	}
	return job.ValuesMap(val.(*cellUnit).vals), status, nil
}
