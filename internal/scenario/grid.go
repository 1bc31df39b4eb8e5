package scenario

import (
	"context"
	"fmt"

	"github.com/netecon-sim/publicoption/internal/core"
	"github.com/netecon-sim/publicoption/internal/obs"
	"github.com/netecon-sim/publicoption/internal/sweep"
	"github.com/netecon-sim/publicoption/internal/traffic"
)

// GridJob is a compiled provider-market sweep: the materialized CP
// population, both axes resolved to absolute model units, the output layer
// names, and a cell solver. A 2-D grid compiles to one row per row-axis
// value; a 1-D sweep compiles to a single row with no row axis. The unit is
// a cell, a pure function of its coordinates: every static market solve —
// Run's 1-D sweeps, RunGrid, the sampler, refinement and the serving
// layer's cell-cached batch endpoint — solves cells on pooled GridWorkers,
// so a cell solved locally and a cell solved behind the HTTP cache are the
// same computation, bit for bit.
type GridJob struct {
	// Xs are the resolved column-axis values (absolute ν for a "nu" axis,
	// never fractions of saturation), Ys the resolved row-axis values ({0}
	// for a 1-D sweep).
	Xs, Ys []float64
	// XAxis and YAxis are the Axis* constants of the column and row axes;
	// YAxis is empty for a 1-D sweep.
	XAxis, YAxis string
	// Layers names the scalar fields each cell produces, in output order:
	// "phi" for the market-level consumer surplus Φ, metric/provider (e.g.
	// "share/incumbent") for per-provider metrics.
	Layers []string

	scenario *Scenario
	pop      traffic.Population
	// fixedNu is the resolved absolute per-capita capacity ν when neither
	// axis is "nu"; 0 otherwise (the axis supplies ν per cell).
	fixedNu float64
}

// Cell is the outcome of one grid cell: its position, its resolved
// coordinates, and one value per layer.
type Cell struct {
	// Row and Col index into the job's Ys and Xs.
	Row int `json:"row"`
	Col int `json:"col"`
	// X and Y are the resolved coordinates (absolute model units).
	X float64 `json:"x"`
	Y float64 `json:"y"`
	// Values holds one scalar per layer name (see GridJob.Layers).
	Values map[string]float64 `json:"values"`
}

// UnitSpec is the content address of a job's cells, less their
// coordinates: the parts of the scenario that change a solved cell's
// numbers (population, providers, axes, fixed ν, metrics) and nothing else.
// The unit is a cell, a pure function of its coordinates, so a digest of
// this spec plus a cell's (x, y) addresses one cell wherever it is solved:
// a dense grid cell, a refinement lattice point or probe, or a /v1/query
// fallback. Cosmetic fields (name, title, description, reference) and the
// axis values are excluded, so renaming, resizing or refining a grid
// re-uses every cell it shares.
type UnitSpec struct {
	Population PopulationSpec `json:"population"`
	Providers  []ProviderSpec `json:"providers"`
	XAxis      string         `json:"x_axis"`
	YAxis      string         `json:"y_axis"`
	// Nu is the fixed absolute per-capita capacity ν; 0 when one of the
	// axes is "nu" (the coordinates supply it).
	Nu      float64  `json:"nu,omitempty"`
	Metrics []string `json:"metrics"`
}

// CompileGrid validates the scenario and compiles its 2-D sweep into a
// grid job. Non-grid scenarios are rejected (use Run).
func (s *Scenario) CompileGrid() (*GridJob, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if !s.IsGrid() {
		return nil, fmt.Errorf("scenario %q: declares a 1-D sweep (axis %q); solve it with Run", s.Name, s.Sweep.Axis)
	}
	return s.compile()
}

// compile materializes the population and resolves the sweep of a
// validated scenario into a job: every ν made absolute, a 1-D sweep as one
// row with no row axis.
func (s *Scenario) compile() (*GridJob, error) {
	pop, err := s.Population.Materialize()
	if err != nil {
		return nil, err
	}
	sat := pop.TotalUnconstrainedPerCapita()
	j := &GridJob{
		XAxis:    s.Sweep.Axis,
		Xs:       s.Sweep.XValues(),
		Ys:       []float64{0},
		Layers:   s.layers(),
		scenario: s,
		pop:      pop,
	}
	if s.IsGrid() {
		j.YAxis, j.Ys = s.Sweep.Grid.Axis, s.Sweep.Grid.RowValues()
	}
	if j.XAxis == AxisNu {
		j.Xs = s.resolveNu(j.Xs, sat)
	}
	if j.YAxis == AxisNu {
		j.Ys = s.resolveNu(j.Ys, sat)
	}
	if !s.sweepsAxis(AxisNu) {
		j.fixedNu = s.Sweep.Nu
		if s.Sweep.OfSaturation {
			j.fixedNu *= sat
		}
	}
	return j, nil
}

// layers lists the output layers of the scenario's market sweep, in output
// order: "phi" for the market-level metric, metric/provider for the
// per-provider ones.
func (s *Scenario) layers() []string {
	var layers []string
	for _, m := range s.Sweep.metrics() {
		if m == MetricPhi {
			layers = append(layers, MetricPhi)
			continue
		}
		for _, p := range s.Providers {
			layers = append(layers, m+"/"+p.Name)
		}
	}
	return layers
}

// Cells returns the total cell count (rows × columns).
func (j *GridJob) Cells() int { return len(j.Xs) * len(j.Ys) }

// CPs returns the size of the job's materialized population.
func (j *GridJob) CPs() int { return len(j.pop) }

// UnitSpec returns the content address of the job's cells; a cell adds its
// resolved (x, y).
func (j *GridJob) UnitSpec() UnitSpec {
	return UnitSpec{
		Population: j.scenario.Population,
		Providers:  j.scenario.Providers,
		XAxis:      j.XAxis,
		YAxis:      j.YAxis,
		Nu:         j.fixedNu,
		Metrics:    j.scenario.Sweep.metrics(),
	}
}

// NewGrid allocates the zero-filled result grid matching this job.
func (j *GridJob) NewGrid() *sweep.Grid {
	return sweep.NewGrid(j.scenario.Title, j.XAxis, j.YAxis, j.Xs, j.Ys, j.Layers)
}

// GridWorker is a pooled set of solver buffers: one market, its class-game
// solver and their allocation-free kernel workspaces, and the pair of
// market outcomes every cell is solved into (a best-responding provider's
// search alternates between them). Every solve first
// resets their warm state (the migration search inside one cell still
// warm-starts itself), so a cell is a pure function of its coordinates —
// the same bits on a fresh worker as on one that solved any other cells,
// in any order — while the buffers stay grown. Workers are not safe for
// concurrent use; the executor gives each goroutine its own.
type GridWorker struct {
	job  *GridJob
	mk   *core.Market
	outs [2]core.MarketOutcome
}

// NewWorker returns a worker with its own, not yet grown, buffers.
func (j *GridJob) NewWorker() *GridWorker { return &GridWorker{job: j} }

// Stats returns the worker's cumulative solver telemetry (zero before the
// first SolveCell builds the market). Workers are single-goroutine; callers
// aggregating across workers publish each worker's stats to an obs.Counters
// sink after the sweep drains.
func (w *GridWorker) Stats() obs.SolveStats {
	if w.mk == nil {
		return obs.SolveStats{}
	}
	return w.mk.Solver.Stats()
}

// SolveCell solves cell (row, col) and returns its layer values.
func (w *GridWorker) SolveCell(row, col int) Cell {
	j := w.job
	x, y := j.Xs[col], j.Ys[row]
	return Cell{Row: row, Col: col, X: x, Y: y, Values: w.SolveAt(x, y)}
}

// SolveAt solves the market at arbitrary resolved coordinates (x, y) — not
// necessarily on the grid's own lattice — and returns the layer values.
// This is the adaptive refinement entry point: refined lattice points and
// verification probes land between the seed knots. Axis domains are convex,
// so any point between validated grid bounds is itself valid.
func (w *GridWorker) SolveAt(x, y float64) map[string]float64 {
	pt, _ := w.solve(x, y)
	return w.job.cellValues(pt)
}

// solve is SolveAt returning the metric point and the solved per-provider
// class equilibria. The equilibria may live in the worker's outcome
// buffer: they are valid until the worker's next solve, and a caller that
// keeps them clones them first.
func (w *GridWorker) solve(x, y float64) (point, []providerEq) {
	j := w.job
	nu := j.fixedNu
	var axes []axisValue
	for _, av := range []axisValue{{j.XAxis, x}, {j.YAxis, y}} {
		switch av.axis {
		case AxisNu:
			nu = av.value
		case "": // a 1-D sweep has no row axis
		default:
			axes = append(axes, av)
		}
	}
	if w.mk == nil {
		w.mk = core.NewMarket(core.NewSolver(nil), j.pop, nu)
		w.mk.MigrationTol = 1e-7
	} else {
		w.mk.NuBar = nu
		w.mk.Reset()
	}
	return j.scenario.solveAt(w.mk, &w.outs, axes)
}

// cellValues flattens a solved point into the job's layer map.
func (j *GridJob) cellValues(pt point) map[string]float64 {
	vals := make(map[string]float64, len(j.Layers))
	for _, m := range j.scenario.Sweep.metrics() {
		if m == MetricPhi {
			vals[MetricPhi] = pt.phi
			continue
		}
		for k, p := range j.scenario.Providers {
			var v float64
			switch m {
			case MetricPsi:
				v = pt.psi[k]
			case MetricShare:
				v = pt.share[k]
			case MetricUtilization:
				v = pt.util[k]
			}
			vals[m+"/"+p.Name] = v
		}
	}
	return vals
}

// SolveCells is the one executor of static market solves. It solves each
// listed cell (a row-major index row·len(Xs)+col), hands it to emit —
// concurrently, from up to workers goroutines — and returns the summed
// solver telemetry. Each goroutine owns one pooled GridWorker and cells are
// claimed by work stealing; a cell is a pure function of its coordinates,
// so neither the worker count nor the visiting order reaches a value. Once
// ctx is done no cell is started; a nil ctx never cancels.
func (j *GridJob) SolveCells(ctx context.Context, workers int, cells []int, emit func(Cell)) obs.SolveStats {
	nx := len(j.Xs)
	return j.each(ctx, workers, len(cells), func(w *GridWorker, i int) {
		emit(w.SolveCell(cells[i]/nx, cells[i]%nx))
	})
}

// each calls visit(w, i) for every i in [0, n) from up to workers
// goroutines, each with its own pooled worker, and returns the workers'
// summed telemetry.
func (j *GridJob) each(ctx context.Context, workers, n int, visit func(w *GridWorker, i int)) obs.SolveStats {
	if workers <= 0 || workers > n {
		workers = n
	}
	pool := make([]*GridWorker, workers)
	sweep.RunRowsContext(ctx, workers, n, func(worker, i int) {
		if pool[worker] == nil {
			pool[worker] = j.NewWorker()
		}
		visit(pool[worker], i)
	})
	var total obs.SolveStats
	for _, w := range pool {
		if w != nil {
			total.Accumulate(w.Stats())
		}
	}
	return total
}

// solveAll solves every cell of the job into a fresh result grid.
func (j *GridJob) solveAll(opt RunOptions) *sweep.Grid {
	g := j.NewGrid()
	cells := make([]int, j.Cells())
	for i := range cells {
		cells[i] = i
	}
	opt.Stats.Add(j.SolveCells(nil, opt.workers(), cells, func(c Cell) {
		for li, name := range j.Layers {
			g.Layers[li].Z[c.Row][c.Col] = c.Values[name]
		}
	}))
	return g
}

// RunGrid validates and solves a 2-D grid scenario through SolveCells:
// cells are spread over workers by work stealing, each worker a pooled
// solver. The result is one grid with one layer per recorded metric (per
// metric and provider for per-provider metrics).
func (s *Scenario) RunGrid(opt RunOptions) (*sweep.Grid, error) {
	job, err := s.CompileGrid()
	if err != nil {
		return nil, err
	}
	return job.solveAll(opt), nil
}
