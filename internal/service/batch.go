package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"github.com/netecon-sim/publicoption/internal/cache"
	"github.com/netecon-sim/publicoption/internal/obs"
	"github.com/netecon-sim/publicoption/internal/scenario"
)

// POST /v1/batch — the streaming batch runner. One request solves either a
// list of named/inline scenarios or one 2-D grid scenario, and the response
// is NDJSON (application/x-ndjson): one frame per result, written and
// flushed as each completes, so a client watching a 30-minute grid sees
// cells arrive instead of a silent connection.
//
// Grid requests are cached cell by cell: the unit is a cell, a pure
// function of its coordinates. Every cell's content address (cellKeys: a
// digest of the grid's physics, computed once per resolved grid, then the
// cell's resolved (x, y); nothing cosmetic) is probed first, cached cells
// are written at once and flushed together before any solve, and only the
// missing cells are solved. Renaming, resizing or refining a grid therefore
// re-solves only cells it has not seen, re-running it unchanged solves
// zero, and no cell depends on what the cache held.
//
// See docs/SERVICE.md for the full frame-by-frame contract.

// maxBatchScenarios bounds the scenario-list mode; a larger batch is better
// expressed as several requests (the cache makes re-submission free).
const maxBatchScenarios = 100

// batchRequest is the body of POST /v1/batch. Exactly one mode must be
// set: Scenarios (list mode) or Grid/GridJSON (grid mode).
type batchRequest struct {
	// Scenarios lists what to run: each element is either a JSON string
	// (a registered scenario name) or a JSON object (an inline scenario
	// definition, the docs/SCENARIOS.md schema).
	Scenarios []json.RawMessage `json:"scenarios,omitempty"`
	// Grid names a registered 2-D grid scenario; GridJSON inlines one.
	Grid     string          `json:"grid,omitempty"`
	GridJSON json.RawMessage `json:"grid_json,omitempty"`
	// Refine switches grid mode to adaptive refinement: instead of solving
	// every cell, the scenario's seed grid is refined where the surface
	// bends (internal/refine) and the stream carries lattice points and
	// leaf cells instead of dense cells. The resulting surrogate is cached,
	// warming GET /v1/query.
	Refine bool `json:"refine,omitempty"`
	// Workers overrides the solve's internal parallelism. Execution-only:
	// it does not participate in any cache key.
	Workers int `json:"workers,omitempty"`
}

// scenarioFrame is one completed scenario in list mode.
type scenarioFrame struct {
	Index int `json:"index"`
	RunResponse
}

// gridHeaderFrame opens a grid-mode stream with the resolved geometry, so
// clients can allocate before any cell arrives.
type gridHeaderFrame struct {
	Grid gridInfo `json:"grid"`
}

func gridHeader(sc *scenario.Scenario, job *scenario.GridJob, refine bool) *gridHeaderFrame {
	return &gridHeaderFrame{Grid: gridInfo{
		Name: sc.Name, Title: sc.Title,
		XAxis: job.XAxis, YAxis: job.YAxis,
		Xs: job.Xs, Ys: job.Ys, Layers: job.Layers, Cells: job.Cells(),
		Refine: refine,
	}}
}

type gridInfo struct {
	Name   string    `json:"name"`
	Title  string    `json:"title"`
	XAxis  string    `json:"x_axis"`
	YAxis  string    `json:"y_axis"`
	Xs     []float64 `json:"xs"`
	Ys     []float64 `json:"ys"`
	Layers []string  `json:"layers"`
	Cells  int       `json:"cells"`
	// Refine marks a refined stream: Xs/Ys are the seed grid, Cells counts
	// seed cells, and the frames that follow are points and leaves, not
	// dense cells.
	Refine bool `json:"refine,omitempty"`
}

// cellFrame is one solved or cache-served grid cell. Trace carries the
// request's trace ID when the server runs with Options.Trace.
type cellFrame struct {
	Cell  scenario.Cell `json:"cell"`
	Cache string        `json:"cache"` // "hit" or "miss"
	Trace string        `json:"trace,omitempty"`
}

// listDoneFrame closes a list-mode stream.
type listDoneFrame struct {
	Done      bool    `json:"done"`
	Results   int     `json:"results"`
	Errors    int     `json:"errors"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

// gridDoneFrame closes a grid-mode stream. Solved is 0 on a fully warm
// re-run — the number CI asserts on.
type gridDoneFrame struct {
	Done      bool    `json:"done"`
	Cells     int     `json:"cells"`
	Solved    int     `json:"solved"`
	CacheHits int     `json:"cache_hits"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	if err := decodeJSONBody(w, r, &req); err != nil {
		writeError(w, bodyErrorStatus(err), "%v", err)
		return
	}
	listMode := len(req.Scenarios) > 0
	gridMode := req.Grid != "" || len(req.GridJSON) > 0
	if listMode == gridMode {
		writeError(w, http.StatusBadRequest, "give exactly one of \"scenarios\" (a list of names or inline definitions) or \"grid\"/\"grid_json\" (one 2-D grid scenario)")
		return
	}
	if req.Grid != "" && len(req.GridJSON) > 0 {
		writeError(w, http.StatusBadRequest, "give only one of \"grid\" (a registered name) or \"grid_json\" (an inline definition)")
		return
	}
	workers := s.workers(req.Workers)
	if listMode {
		if req.Refine {
			writeError(w, http.StatusBadRequest, "\"refine\" applies to grid mode only")
			return
		}
		s.batchScenarios(w, r, req.Scenarios, workers)
		return
	}
	res, code, err := s.resolve(kindGrid, ref{name: req.Grid, inline: req.GridJSON})
	if err != nil {
		writeError(w, code, "%v", err)
		return
	}
	if req.Refine {
		s.batchGridRefined(w, r, res, workers)
		return
	}
	s.batchGrid(w, r, res, workers)
}

// ---------------------------------------------------------------------------
// List mode.

// batchScenarios solves each listed scenario exactly as POST /v1/runs would,
// streaming one frame per completion in request order. A bad element
// (unknown name, invalid inline definition, a grid or dynamics scenario,
// failed solve, a result that cannot be serialized) becomes an error frame
// carrying its index; the rest of the batch continues.
func (s *Server) batchScenarios(w http.ResponseWriter, r *http.Request, list []json.RawMessage, workers int) {
	if len(list) > maxBatchScenarios {
		writeError(w, http.StatusRequestEntityTooLarge, "batch lists at most %d scenarios, got %d", maxBatchScenarios, len(list))
		return
	}
	nw := newNDJSONWriter(w, s.metrics)
	echo := traceEcho(s.echo(r.Context()))
	start := time.Now()
	results, errs := 0, 0
	for i, raw := range list {
		if r.Context().Err() != nil {
			return // client went away; stop solving
		}
		b, ef := s.batchEntry(r.Context(), i, raw, workers, echo)
		var err error
		if ef != nil {
			errs++
			s.logger.Warn("batch entry failed",
				"index", i, "trace", obs.TraceID(r.Context()), "error", ef.Error)
			err = nw.frame(ef)
		} else {
			results++
			err = nw.encodedFrame(b, true)
		}
		if err != nil {
			return // mid-stream write failure: the client is gone
		}
	}
	//pubopt:allow(streamcheck): terminal summary frame; the stream ends either way and there is nothing left to abort
	nw.frame(&listDoneFrame{
		Done: true, Results: results, Errors: errs,
		ElapsedMS: ms(time.Since(start)),
	})
}

// batchEntry resolves one list element — a JSON string names a registered
// scenario, anything else is an inline definition — and runs it, returning
// its encoded scenarioFrame, or the error frame to stream instead.
func (s *Server) batchEntry(ctx context.Context, index int, raw json.RawMessage, workers int, echo []byte) ([]byte, *errorFrame) {
	entry := ref{inline: raw, entry: true}
	if json.Unmarshal(raw, &entry.name) == nil {
		entry.inline = nil
	}
	res, _, err := s.resolve(kindRun, entry)
	if err != nil {
		return nil, entryError(index, err.Error())
	}
	u, status, elapsedMS, err := s.runScenarioCached(ctx, res, workers)
	if err != nil {
		return nil, entryError(index, "solve failed: "+err.Error())
	}
	b, err := appendScenarioFrame(nil, index, u, status, elapsedMS, echo)
	if err != nil {
		return nil, entryError(index, "serializing result: "+err.Error())
	}
	return b, nil
}

func entryError(index int, msg string) *errorFrame {
	return &errorFrame{Index: &index, Error: msg}
}

// ---------------------------------------------------------------------------
// Grid mode.

// batchGrid streams a grid scenario cell by cell: the cached cells first
// (one map probe each), then the solved cells in completion order, each
// banked as it lands. Solving spreads the missing cells over workers by
// work stealing.
func (s *Server) batchGrid(w http.ResponseWriter, r *http.Request, res *resolved, workers int) {
	job, key := res.job, res.cellKey
	s.serveStream(w, r, "grid", res.sc.Name, gridHeader(res.sc, job, false), func(st *stream) (any, error) {
		// Probe phase: write cached cells (buffered: reserve flushes them
		// before the first solve), collect the misses.
		var miss []int
		for i := 0; i < job.Cells(); i++ {
			row, col := i/len(job.Xs), i%len(job.Xs)
			val, ok := s.store.Lookup(key(job.Xs[col], job.Ys[row]))
			if !ok {
				miss = append(miss, i)
				continue
			}
			if err := st.ctx.Err(); err != nil {
				return nil, err
			}
			st.hits++
			b, err := appendCellFrame(st.nw.scratch(), row, col, job.Xs[col], job.Ys[row], val.(*cellUnit), cache.Hit, st.echoJSON)
			if err == nil {
				err = st.nw.encodedFrame(b, false)
			}
			if err != nil {
				return nil, err
			}
		}
		if len(miss) > 0 {
			if err := st.reserve(); err != nil {
				return nil, err
			}
			if err := solveGridCells(st, job, key, miss, workers); err != nil {
				return nil, err
			}
		}
		return &gridDoneFrame{
			Done: true, Cells: job.Cells(), Solved: st.solved, CacheHits: st.hits,
			ElapsedMS: st.elapsedMS(),
		}, nil
	})
}

// solveGridCells solves the missing cells through the job's executor and
// streams and banks each one as it completes. Solving runs on its own
// goroutine so frames keep flowing while cells are in flight. When the
// client disconnects, or a cell cannot be serialized, the workers stop
// within one cell each and every cell already solved stays cached — the
// work is not wasted.
func solveGridCells(st *stream, job *scenario.GridJob, key func(x, y float64) string, miss []int, workers int) error {
	ctx, stop := context.WithCancel(st.ctx)
	defer stop()
	var solveErr error
	// A cell per worker of buffer lets the workers run ahead of a frame
	// write that is waiting on a slow client.
	cells := make(chan scenario.Cell, workers)
	go func() {
		// Writes to solveErr and st.delta happen before close(cells), which
		// happens before the stream loop below ends, so reading them after
		// the loop needs no lock.
		defer close(cells)
		defer func() {
			if p := recover(); p != nil {
				solveErr = fmt.Errorf("grid solve panicked: %v", p)
			}
		}()
		st.delta.Accumulate(job.SolveCells(ctx, workers, miss, func(c scenario.Cell) {
			cells <- c
		}))
	}()
	var frameErr error
	for c := range cells {
		vals, _ := job.ValuesSlice(c.Values)
		u := newCellUnit(job, vals)
		st.solved++
		st.bank("cell", key(c.X, c.Y), u, obs.SolveStats{})
		if ctx.Err() != nil {
			continue
		}
		b, err := appendCellFrame(st.nw.scratch(), c.Row, c.Col, c.X, c.Y, u, cache.Miss, st.echoJSON)
		if err == nil {
			err = st.nw.encodedFrame(b, true)
		}
		if err != nil {
			frameErr = err
			stop()
		}
	}
	switch {
	case solveErr != nil:
		return solveErr
	case frameErr != nil:
		return frameErr
	case ctx.Err() != nil:
		return errClientGone
	}
	return nil
}
