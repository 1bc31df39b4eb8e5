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
// value; a 1-D sweep compiles to a single row with no row axis. Every
// static market solve — Run's 1-D sweeps, RunGrid and the serving layer's
// row-cached batch endpoint — executes through SolveRows, so a cell solved
// locally and a cell solved behind the HTTP cache are the same
// computation.
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

// UnitSpec is the content address of one solve unit: the ordered points
// (Xs[i], Ys[i]) one fresh GridWorker solves in turn, plus the parts of the
// scenario that change the solved numbers (population, providers, metrics)
// — and nothing else. A unit is a dense grid row, a refinement lattice-row
// task, the refinement probe set or one point. Each solve in a unit
// warm-starts the next, so a value depends on the whole point list: caching
// whole units keeps every cached value exactly what a fresh solve of its
// key returns. Cosmetic fields (name, title, description, reference) and
// the grid's other rows are excluded, so renaming a scenario or adding rows
// re-uses every row it shares.
type UnitSpec struct {
	Population PopulationSpec `json:"population"`
	Providers  []ProviderSpec `json:"providers"`
	XAxis      string         `json:"x_axis"`
	Xs         []float64      `json:"xs"`
	YAxis      string         `json:"y_axis"`
	Ys         []float64      `json:"ys"`
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

// UnitSpec returns the content address of the unit that solves the points
// (xs[i], ys[i]) in order on one fresh worker. It is coordinate-based, not
// index-based, so a refinement lattice row shares its cache entry with the
// dense grid row it coincides with.
func (j *GridJob) UnitSpec(xs, ys []float64) UnitSpec {
	return UnitSpec{
		Population: j.scenario.Population,
		Providers:  j.scenario.Providers,
		XAxis:      j.XAxis,
		Xs:         xs,
		YAxis:      j.YAxis,
		Ys:         ys,
		Nu:         j.fixedNu,
		Metrics:    j.scenario.Sweep.metrics(),
	}
}

// NewGrid allocates the zero-filled result grid matching this job.
func (j *GridJob) NewGrid() *sweep.Grid {
	return sweep.NewGrid(j.scenario.Title, j.XAxis, j.YAxis, j.Xs, j.Ys, j.Layers)
}

// GridWorker owns one warm-started solver (and, through it, the reusable
// allocation-free equilibrium workspaces). Workers are not safe for
// concurrent use, and each solve seeds the next: SolveRows gives every row
// a fresh worker and feeds it the row's cells in column order, so a cell's
// value depends on its row alone.
type GridWorker struct {
	job *GridJob
	mk  *core.Market
}

// NewWorker returns a fresh worker with its own solver state.
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
// class equilibria.
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
		w.mk.NuBar = nu // keeps the per-ISP warm partitions
	}
	return j.scenario.solveAt(w.mk, axes)
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

// SolveRows is the one executor of static market solves. It solves every
// column of each listed row, hands every solved cell to emit —
// concurrently, from up to workers goroutines — and returns the summed
// solver telemetry.
//
// The unit of work is one whole row, solved in column order on a fresh
// GridWorker, so a cell's value depends only on its row's UnitSpec. The one
// exception is a job with no row axis (a 1-D sweep): its single row is cut
// into chunkRanges(len(Xs)) contiguous chunks, each on a fresh worker, so
// one curve keeps its column parallelism. Once ctx is done no cell is
// started; a nil ctx never cancels.
func (j *GridJob) SolveRows(ctx context.Context, workers int, rows []int, emit func(Cell)) obs.SolveStats {
	type unit struct{ row, lo, hi int }
	var units []unit
	for _, row := range rows {
		if j.YAxis != "" {
			units = append(units, unit{row, 0, len(j.Xs)})
			continue
		}
		for _, r := range chunkRanges(len(j.Xs)) {
			units = append(units, unit{row, r[0], r[1]})
		}
	}
	stats := make([]obs.SolveStats, len(units))
	sweep.RunRowsContext(ctx, workers, len(units), func(_, u int) {
		w := j.NewWorker()
		for col := units[u].lo; col < units[u].hi; col++ {
			if ctx != nil && ctx.Err() != nil {
				break
			}
			emit(w.SolveCell(units[u].row, col))
		}
		stats[u] = w.Stats()
	})
	var total obs.SolveStats
	for _, st := range stats {
		total.Accumulate(st)
	}
	return total
}

// solveAll solves every cell of the job into a fresh result grid.
func (j *GridJob) solveAll(opt RunOptions) *sweep.Grid {
	g := j.NewGrid()
	rows := make([]int, len(j.Ys))
	for i := range rows {
		rows[i] = i
	}
	opt.Stats.Add(j.SolveRows(nil, opt.workers(), rows, func(c Cell) {
		for li, name := range j.Layers {
			g.Layers[li].Z[c.Row][c.Col] = c.Values[name]
		}
	}))
	return g
}

// RunGrid validates and solves a 2-D grid scenario through SolveRows: rows
// are distributed across workers by work stealing, each on a fresh
// warm-started solver, and cells within a row warm-start each other along
// the column axis. The result is one grid with one layer per recorded
// metric (per metric and provider for per-provider metrics).
func (s *Scenario) RunGrid(opt RunOptions) (*sweep.Grid, error) {
	job, err := s.CompileGrid()
	if err != nil {
		return nil, err
	}
	return job.solveAll(opt), nil
}
