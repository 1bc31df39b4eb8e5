package publicoption

import (
	"github.com/netecon-sim/publicoption/internal/obs"
	"github.com/netecon-sim/publicoption/internal/plot"
	"github.com/netecon-sim/publicoption/internal/refine"
	"github.com/netecon-sim/publicoption/internal/scenario"
	"github.com/netecon-sim/publicoption/internal/sweep"
)

// Grid-sweep surface: 2-D scenarios (a column axis × a row axis, e.g. the
// Public Option share γ × per-capita capacity ν) compile into cell jobs,
// solve on a work-stealing runner with one pooled solver per goroutine, and
// render as long-form CSV or ASCII heatmaps. See
// docs/SCENARIOS.md for the grid JSON schema and docs/ARCHITECTURE.md for
// where grids sit in the layer stack.

type (
	// ScenarioGrid declares the optional second (row) axis of a scenario
	// sweep; setting it on ScenarioSweep.Grid turns the 1-D sweep into a
	// 2-D grid solved by Scenario.RunGrid.
	ScenarioGrid = scenario.GridSpec
	// ResultGrid is a solved 2-D grid: resolved axis values plus one scalar
	// layer per recorded metric (per metric and provider for per-provider
	// metrics).
	ResultGrid = sweep.Grid
	// ResultGridLayer is one scalar field of a ResultGrid.
	ResultGridLayer = sweep.GridLayer
	// GridJob is a compiled grid scenario: resolved cells plus the one cell
	// executor (SolveCells). The unit is a cell, a pure function of its
	// coordinates: what the executor solves and the serving layer caches.
	GridJob = scenario.GridJob
	// GridCell is one solved grid cell: position, resolved coordinates, and
	// one value per layer.
	GridCell = scenario.Cell
	// GridUnitSpec is the content-addressable specification of a grid's
	// cells less their coordinates: the unit is a cell, a pure function of
	// its coordinates, so its digest plus a cell's (x, y) is that cell's
	// equilibrium cache key.
	GridUnitSpec = scenario.UnitSpec
	// ScenarioRefine is the optional sweep.grid.refine block: it switches
	// Scenario.RunGridRefined from dense solving to adaptive refinement
	// (split only where the surface bends, down to max_depth, with a
	// solver-verified error bound). See docs/REFINEMENT.md.
	ScenarioRefine = scenario.RefineSpec
	// RefinedGrid is the outcome of an adaptive refinement run: a queryable
	// interpolating surrogate (At/Values), flattenable to any resolution
	// (Flatten), carrying its refinement telemetry (Stats) and verified
	// error bound (Verified/MaxError).
	RefinedGrid = refine.Result
	// GridRefineStats is the refinement telemetry block: points solved vs
	// reused, cells split vs center-verified, and the leaf-depth histogram.
	GridRefineStats = obs.RefineStats
)

// GridScenarioNames lists the built-in 2-D grid scenarios, sorted.
func GridScenarioNames() []string { return scenario.GridNames() }

// RenderHeatmap renders one layer of a solved grid as an ASCII heatmap
// (largest row-axis value on top, 10-symbol shade ramp, range legend).
// An empty layer name selects the first layer.
func RenderHeatmap(g *ResultGrid, layer string) string { return plot.Heatmap(g, layer) }
