package scenario

import (
	"context"
	"fmt"
	"math"
	"sync"

	"github.com/netecon-sim/publicoption/internal/obs"
	"github.com/netecon-sim/publicoption/internal/refine"
)

// RefineSpec is the scenario-level adaptive-refinement policy — the JSON
// face of refine.Spec, attached to a grid sweep as sweep.grid.refine.
// Zero-valued fields take the refine package defaults.
type RefineSpec struct {
	// Tolerance is the relative error tolerance (per layer, normalized by
	// the layer's seed-grid value range). 0 selects refine.DefaultTol.
	Tolerance float64 `json:"tolerance,omitempty"`
	// MaxDepth caps refinement depth; 0 selects refine.DefaultMaxDepth,
	// values above obs.MaxRefineDepth are rejected.
	MaxDepth int `json:"max_depth,omitempty"`
	// Probes is the solver-verification budget; 0 selects
	// refine.DefaultProbes, -1 disables verification.
	Probes int `json:"probes,omitempty"`
	// IndicatorLayer optionally names a layer ("phi", "psi/incumbent", ...)
	// whose crossing of IndicatorValue marks a regime boundary that must be
	// refined regardless of curvature.
	IndicatorLayer string `json:"indicator_layer,omitempty"`
	// IndicatorValue is the crossed level (typically 0).
	IndicatorValue float64 `json:"indicator_value,omitempty"`
	// Seed seeds the deterministic probe generator; 0 selects 1.
	Seed uint64 `json:"seed,omitempty"`
}

// validate vets the block against the scenario's output layers.
func (r *RefineSpec) validate(layers []string) error {
	if math.IsNaN(r.Tolerance) || math.IsInf(r.Tolerance, 0) || r.Tolerance < 0 {
		return fmt.Errorf("refine.tolerance must be a finite value >= 0 (0 = default %g), got %g", refine.DefaultTol, r.Tolerance)
	}
	if r.MaxDepth < 0 || r.MaxDepth > obs.MaxRefineDepth {
		return fmt.Errorf("refine.max_depth must be in [0, %d] (0 = default %d), got %d", obs.MaxRefineDepth, refine.DefaultMaxDepth, r.MaxDepth)
	}
	if r.Probes < -1 {
		return fmt.Errorf("refine.probes must be >= -1 (-1 disables verification, 0 = default %d), got %d", refine.DefaultProbes, r.Probes)
	}
	if math.IsNaN(r.IndicatorValue) || math.IsInf(r.IndicatorValue, 0) {
		return fmt.Errorf("refine.indicator_value must be finite, got %g", r.IndicatorValue)
	}
	if r.IndicatorLayer != "" {
		found := false
		for _, l := range layers {
			if l == r.IndicatorLayer {
				found = true
			}
		}
		if !found {
			return fmt.Errorf("refine.indicator_layer %q is not an output layer (have %v)", r.IndicatorLayer, layers)
		}
	}
	return nil
}

// spec lowers the scenario block to the engine's policy type.
func (r *RefineSpec) spec() refine.Spec {
	if r == nil {
		return refine.Spec{}
	}
	return refine.Spec{
		Tol:            r.Tolerance,
		MaxDepth:       r.MaxDepth,
		Probes:         r.Probes,
		IndicatorLayer: r.IndicatorLayer,
		IndicatorValue: r.IndicatorValue,
		Seed:           r.Seed,
	}
}

// RefineSpec returns the job's refinement policy (zero value when the
// scenario declares no refine block — Run applies the defaults).
func (j *GridJob) RefineSpec() refine.Spec {
	return j.scenario.Sweep.Grid.Refine.spec()
}

// ValuesSlice flattens a cell's value map into layer order. ok is false
// when any layer is missing — a map from another job's layers.
func (j *GridJob) ValuesSlice(vals map[string]float64) ([]float64, bool) {
	out := make([]float64, len(j.Layers))
	for i, name := range j.Layers {
		v, ok := vals[name]
		if !ok {
			return nil, false
		}
		out[i] = v
	}
	return out, true
}

// ValuesMap is the inverse of ValuesSlice.
func (j *GridJob) ValuesMap(vals []float64) map[string]float64 {
	out := make(map[string]float64, len(j.Layers))
	for i, name := range j.Layers {
		out[name] = vals[i]
	}
	return out
}

// gridPointSolver adapts a GridWorker to the engine's PointSolver: a pooled
// worker, so each point is a pure function of its coordinates.
type gridPointSolver struct{ w *GridWorker }

func (ps *gridPointSolver) Solve(x, y float64) []float64 {
	vals := ps.w.SolveAt(x, y)
	out, _ := ps.w.job.ValuesSlice(vals)
	return out
}

// RefineProblem adapts the compiled grid to the refinement engine, which
// builds one worker per solve goroutine. The returned flush publishes the
// accumulated solver telemetry of every worker the engine created into
// stats (when stats is non-nil) and releases the workers; call it exactly
// once, after the run. The problem's NewSolver
// outlives the run inside refine.Result, so flush is what lets the
// workers' markets, solvers and kernel workspaces be collected.
func (j *GridJob) RefineProblem(stats *obs.Counters) (refine.Problem, func()) {
	var mu sync.Mutex
	var workers []*GridWorker
	prob := refine.Problem{
		Title:  j.scenario.Title,
		XLabel: j.XAxis,
		YLabel: j.YAxis,
		Xs:     j.Xs,
		Ys:     j.Ys,
		Layers: j.Layers,
		NewSolver: func() refine.PointSolver {
			w := j.NewWorker()
			mu.Lock()
			workers = append(workers, w)
			mu.Unlock()
			return &gridPointSolver{w: w}
		},
	}
	flush := func() {
		mu.Lock()
		defer mu.Unlock()
		if stats != nil {
			for _, w := range workers {
				stats.Add(w.Stats())
			}
		}
		workers = nil
	}
	return prob, flush
}

// RunGridRefined validates and adaptively solves a 2-D grid scenario: the
// declared grid is the seed, and internal/refine splits only the cells
// where curvature (or the configured indicator crossing) exceeds tolerance.
// The result is a queryable surrogate; flatten it to any resolution with
// Result.Flatten. Scenarios without a refine block run with the package
// defaults.
func (s *Scenario) RunGridRefined(opt RunOptions) (*refine.Result, error) {
	job, err := s.CompileGrid()
	if err != nil {
		return nil, err
	}
	prob, flush := job.RefineProblem(opt.Stats)
	defer flush()
	return refine.Run(context.Background(), prob, job.RefineSpec(), refine.Options{Workers: opt.workers()})
}
