// Package refine is the adaptive 2-D grid engine: it solves a coarse seed
// grid, tests each cell's bilinear patch against a solved center point, and
// recursively splits only the cells where that center error (or a sign
// change in a designated indicator layer) exceeds tolerance, down to a
// depth cap. The refined quadtree doubles as an interpolating surrogate —
// bilinear patches over leaf cells with a solver-verified error bound — so
// grid cost scales with the number of *interesting* cells instead of the
// output resolution, and off-grid point queries usually never solve.
//
// # Lattice
//
// All refinement happens on a virtual fine lattice: with a depth cap D each
// seed cell spans S0 = 1<<D lattice steps per axis, so a seed grid of
// nx × ny knots covers a (nx−1)·S0+1 × (ny−1)·S0+1 lattice. Lattice
// coordinates are exact integers; the model coordinate of lattice column ix
// is xs[c] + (xs[c+1]−xs[c])·r/S0 with c = ix/S0, r = ix%S0, which handles
// non-uniform seed axes and makes shared cell edges land on identical
// floats regardless of which neighbor solved them first.
//
// # Determinism
//
// Refinement proceeds in depth waves. Each wave collects every lattice
// point it needs, dedupes and sorts them by (row, column), offers each to
// Options.Lookup and solves the misses on a pool of point solvers, one per
// goroutine. The unit is a cell, a pure function of its coordinates: a
// solver returns the same values at a point whatever it solved before, so
// a cached point is exactly what a solve returns, and a lattice point at a
// seed knot is the dense grid's cell there. Results are merged
// sequentially in sorted order, so the refined tree, the surrogate, and
// every callback sequence are byte-identical for any worker count.
//
// # Error contract
//
// A cell is accepted as a leaf by the center test alone: its solved center
// point agrees with the bilinear prediction within Tol/2 in every layer, and
// the indicator layer (if any) does not cross its level over the five
// samples. A cell that fails is split, until the depth cap finalizes it
// untested. After refinement, a budgeted sample of off-knot
// probe points is solved and compared against the surrogate; MaxError
// reports the worst normalized error observed anywhere, and Verified is
// true only when probing ran and stayed within Tol. Errors are normalized
// per layer by the layer's value range over the seed grid.
package refine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"

	"github.com/netecon-sim/publicoption/internal/obs"
	"github.com/netecon-sim/publicoption/internal/sweep"
)

// Defaults for Spec fields left zero.
const (
	DefaultTol      = 0.01
	DefaultMaxDepth = 4
	DefaultProbes   = 32
)

// splitFrac is the center-test threshold as a fraction of Spec.Tol.
// Splitting at Tol/2 leaves headroom so off-center surrogate errors inside
// an accepted leaf stay within Tol.
const splitFrac = 0.5

// PointSolver produces the metric layers at one grid point. Implementations
// are single-goroutine (the engine gives each of its solve goroutines one,
// built by Problem.NewSolver and reused for every point that goroutine
// claims) and must be pure: Solve(x, y) returns identical values whatever
// the solver solved before, or refinement loses its byte-reproducibility
// contract.
type PointSolver interface {
	// Solve returns one value per Problem.Layers entry, in order.
	Solve(x, y float64) []float64
}

// Problem describes the surface to refine.
type Problem struct {
	// Title is the human description, carried into flattened grids.
	Title string
	// XLabel and YLabel name the column and row axes.
	XLabel, YLabel string
	// Xs and Ys are the seed-grid axes in resolved model units: strictly
	// increasing, at least two knots each.
	Xs, Ys []float64
	// Layers names the metric layers every solve produces.
	Layers []string
	// NewSolver builds a point solver. The engine calls it at most once per
	// solve goroutine of a run.
	NewSolver func() PointSolver
}

// Spec is the refinement policy. The zero value of each field selects its
// default; see the package constants.
type Spec struct {
	// Tol is the relative tolerance: normalized surrogate errors up to Tol
	// are acceptable. 0 selects DefaultTol.
	Tol float64 `json:"tolerance,omitempty"`
	// MaxDepth caps refinement depth (a depth-d leaf is 2^d× finer than a
	// seed cell per axis). 0 selects DefaultMaxDepth; values above
	// obs.MaxRefineDepth are clamped.
	MaxDepth int `json:"max_depth,omitempty"`
	// Probes is the verification budget: how many off-knot points to solve
	// and compare against the surrogate after refinement. 0 selects
	// DefaultProbes; negative disables verification (Verified stays false).
	Probes int `json:"probes,omitempty"`
	// IndicatorLayer optionally names a layer whose sign change (crossing
	// IndicatorValue) marks a regime boundary: any cell whose samples
	// straddle the value is split regardless of curvature.
	IndicatorLayer string `json:"indicator_layer,omitempty"`
	// IndicatorValue is the level whose crossing the indicator tracks
	// (typically 0, e.g. a welfare difference layer).
	IndicatorValue float64 `json:"indicator_value,omitempty"`
	// Seed seeds the probe-point generator. 0 selects 1.
	Seed uint64 `json:"seed,omitempty"`
}

// withDefaults resolves zero fields to their defaults and clamps the depth.
func (s Spec) withDefaults() Spec {
	if s.Tol <= 0 {
		s.Tol = DefaultTol
	}
	if s.MaxDepth <= 0 {
		s.MaxDepth = DefaultMaxDepth
	}
	if s.MaxDepth > obs.MaxRefineDepth {
		s.MaxDepth = obs.MaxRefineDepth
	}
	if s.Probes == 0 {
		s.Probes = DefaultProbes
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	return s
}

// Point is one materialized lattice point, delivered to Options.OnPoint in
// deterministic (row, column) merge order.
type Point struct {
	X, Y float64
	// Values holds one value per Problem.Layers entry. The slice is owned
	// by the engine; callbacks must not retain or mutate it past the call.
	Values []float64
	// Reused reports that the point came from Options.Lookup, not a solve.
	Reused bool
}

// Leaf is one finalized leaf cell, delivered to Options.OnLeaf in
// deterministic finalization order (by depth wave, then row-major).
type Leaf struct {
	// X0..Y1 bound the cell in model units.
	X0, Y0, X1, Y1 float64
	// Depth is the refinement depth (0 = unsplit seed cell).
	Depth int
	// Corners holds, per layer, the corner values [v00, v10, v01, v11] at
	// (X0,Y0), (X1,Y0), (X0,Y1), (X1,Y1).
	Corners [][4]float64
}

// Options carries the run environment: parallelism, cache hooks, and
// streaming callbacks. All callbacks are invoked on the Run goroutine.
type Options struct {
	// Workers bounds solve parallelism (0 = GOMAXPROCS).
	Workers int
	// Lookup, when set, is consulted once per point (lattice point or
	// probe) before it is solved — the bridge to the content-addressed
	// equilibrium cache. A hit returns the point's value slice, which
	// becomes owned by the engine; a miss is solved.
	Lookup func(x, y float64) ([]float64, bool)
	// Store, when set, receives every freshly solved point (lattice points
	// and probes), in deterministic order.
	Store func(x, y float64, vals []float64)
	// OnPoint, when set, streams every materialized lattice point. A
	// non-nil error aborts the run.
	OnPoint func(p Point) error
	// OnLeaf, when set, streams every finalized leaf. A non-nil error
	// aborts the run.
	OnLeaf func(l Leaf) error
}

// cellNode is one quadtree node over the lattice. Children (when child ≥ 0)
// are stored contiguously in quadrant order: +0 = (lo x, lo y), +1 = (hi x,
// lo y), +2 = (lo x, hi y), +3 = (hi x, hi y).
type cellNode struct {
	ix, iy int32 // lattice coords of the lower-left corner
	span   int32 // lattice steps per side
	depth  int32
	child  int32 // index of the first child in Result.cells; -1 = leaf
}

// Result is the refined quadtree plus its interpolating surrogate.
type Result struct {
	prob Problem
	spec Spec // resolved (defaults applied)

	s0     int // lattice span of one seed cell = 1 << spec.MaxDepth
	w, h   int // fine lattice dimensions
	nSeedX int // seed cells per row = len(Xs)-1

	points map[int64][]float64 // lattice key -> one value per layer
	cells  []cellNode          // roots first (row-major), then children by wave

	scale     []float64 // per-layer normalization (seed-grid value range)
	indicator int       // indicator layer index, -1 if unset

	stats     obs.RefineStats
	centerErr float64 // worst accepted center-test error (normalized)
	probeErr  float64 // worst probe error (normalized)
	verified  bool
}

// engine carries the transient refinement state that the finished Result
// does not need.
type engine struct {
	r   *Result
	opt Options
	// solvers holds one point solver per solve goroutine, built on first
	// use and reused for every point that goroutine claims.
	solvers []PointSolver
}

// Run refines prob under spec and returns the surrogate.
func Run(ctx context.Context, prob Problem, spec Spec, opt Options) (*Result, error) {
	if err := validateProblem(prob); err != nil {
		return nil, err
	}
	spec = spec.withDefaults()
	indicator := -1
	if spec.IndicatorLayer != "" {
		for i, name := range prob.Layers {
			if name == spec.IndicatorLayer {
				indicator = i
			}
		}
		if indicator < 0 {
			return nil, fmt.Errorf("refine: indicator layer %q is not among the problem layers %v", spec.IndicatorLayer, prob.Layers)
		}
	}
	s0 := 1 << spec.MaxDepth
	r := &Result{
		prob:      prob,
		spec:      spec,
		s0:        s0,
		w:         (len(prob.Xs)-1)*s0 + 1,
		h:         (len(prob.Ys)-1)*s0 + 1,
		nSeedX:    len(prob.Xs) - 1,
		points:    make(map[int64][]float64),
		indicator: indicator,
	}
	e := newEngine(r, opt)

	// Wave 0: the seed grid.
	seed := make([]latticePt, 0, len(prob.Xs)*len(prob.Ys))
	for cy := 0; cy < len(prob.Ys); cy++ {
		for cx := 0; cx < len(prob.Xs); cx++ {
			seed = append(seed, latticePt{ix: cx * s0, iy: cy * s0})
		}
	}
	if err := e.solveWave(ctx, seed); err != nil {
		return nil, err
	}
	r.computeScales()

	// Roots, row-major, so Result.eval can index them directly.
	frontier := make([]int32, 0, r.nSeedX*(len(prob.Ys)-1))
	for cy := 0; cy < len(prob.Ys)-1; cy++ {
		for cx := 0; cx < r.nSeedX; cx++ {
			r.cells = append(r.cells, cellNode{
				ix: int32(cx * s0), iy: int32(cy * s0), span: int32(s0), child: -1,
			})
			frontier = append(frontier, int32(len(r.cells)-1))
		}
	}

	for depth := 0; depth < spec.MaxDepth && len(frontier) > 0; depth++ {
		next, err := e.refineWave(ctx, frontier)
		if err != nil {
			return nil, err
		}
		frontier = next
	}
	// Cells still on the frontier hit the depth cap: finalize them as
	// leaves without spending further solves.
	for _, ci := range frontier {
		if err := e.finalizeLeaf(ci); err != nil {
			return nil, err
		}
	}

	if spec.Probes > 0 {
		if err := e.reverify(ctx); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// newEngine returns the transient state of a run over r.
func newEngine(r *Result, opt Options) *engine {
	if opt.Workers <= 0 {
		opt.Workers = runtime.GOMAXPROCS(0)
	}
	return &engine{
		r:       r,
		opt:     opt,
		solvers: make([]PointSolver, opt.Workers),
	}
}

func validateProblem(p Problem) error {
	if len(p.Xs) < 2 || len(p.Ys) < 2 {
		return errors.New("refine: seed grid needs at least 2 knots per axis")
	}
	for _, axis := range [][]float64{p.Xs, p.Ys} {
		for i := 1; i < len(axis); i++ {
			if axis[i] <= axis[i-1] {
				return errors.New("refine: seed axes must be strictly increasing")
			}
		}
	}
	if len(p.Layers) == 0 {
		return errors.New("refine: problem has no layers")
	}
	if p.NewSolver == nil {
		return errors.New("refine: problem has no solver factory")
	}
	return nil
}

// latticePt is a point request on the virtual fine lattice.
type latticePt struct{ ix, iy int }

// key maps lattice coordinates to the points-map key.
func (r *Result) key(ix, iy int) int64 { return int64(iy)*int64(r.w) + int64(ix) }

// coordX converts a lattice column to its model coordinate, exactly at seed
// knots and linearly within a seed cell (handles non-uniform seed axes).
func (r *Result) coordX(ix int) float64 { return latticeCoord(r.prob.Xs, ix, r.s0) }

// coordY converts a lattice row to its model coordinate.
func (r *Result) coordY(iy int) float64 { return latticeCoord(r.prob.Ys, iy, r.s0) }

//pubopt:hotpath
func latticeCoord(knots []float64, i, s0 int) float64 {
	c := i / s0
	rem := i % s0
	if rem == 0 {
		return knots[c]
	}
	return knots[c] + (knots[c+1]-knots[c])*float64(rem)/float64(s0)
}

// computeScales derives the per-layer error normalization from the seed
// grid: a layer's scale is its value range, floored so a (near-)constant
// layer measures against its magnitude instead of exploding.
func (r *Result) computeScales() {
	n := len(r.prob.Layers)
	r.scale = make([]float64, n)
	mins := make([]float64, n)
	maxs := make([]float64, n)
	first := true
	for cy := 0; cy < len(r.prob.Ys); cy++ {
		for cx := 0; cx < len(r.prob.Xs); cx++ {
			v := r.points[r.key(cx*r.s0, cy*r.s0)]
			for li := 0; li < n; li++ {
				if first || v[li] < mins[li] {
					mins[li] = v[li]
				}
				if first || v[li] > maxs[li] {
					maxs[li] = v[li]
				}
			}
			first = false
		}
	}
	for li := 0; li < n; li++ {
		s := maxs[li] - mins[li]
		mag := maxs[li]
		if -mins[li] > mag {
			mag = -mins[li]
		}
		if mag < 1 {
			mag = 1
		}
		if s < 1e-9*mag {
			s = mag
		}
		r.scale[li] = s
	}
}

// solveWave materializes every requested lattice point that is not already
// solved: dedupe, sort by (row, column), look up or solve each point, then
// merge sequentially in sorted order.
func (e *engine) solveWave(ctx context.Context, reqs []latticePt) error {
	r := e.r
	sort.Slice(reqs, func(a, b int) bool {
		if reqs[a].iy != reqs[b].iy {
			return reqs[a].iy < reqs[b].iy
		}
		return reqs[a].ix < reqs[b].ix
	})
	// Dedupe and drop already-solved points.
	todo := reqs[:0]
	for i, p := range reqs {
		if i > 0 && p == reqs[i-1] {
			continue
		}
		if _, done := r.points[r.key(p.ix, p.iy)]; done {
			continue
		}
		todo = append(todo, p)
	}
	if len(todo) == 0 {
		return nil
	}
	xs, ys := make([]float64, len(todo)), make([]float64, len(todo))
	for k, p := range todo {
		xs[k], ys[k] = r.coordX(p.ix), r.coordY(p.iy)
	}
	vals, reused, err := e.solvePoints(ctx, xs, ys)
	if err != nil {
		return err
	}

	// Sequential merge in sorted order: the only place points, stats, and
	// callbacks are touched, so the run is worker-count independent.
	for k, p := range todo {
		if reused[k] {
			r.stats.PointsReused++
		} else {
			r.stats.PointsSolved++
		}
		r.points[r.key(p.ix, p.iy)] = vals[k]
		if e.opt.OnPoint != nil {
			if err := e.opt.OnPoint(Point{X: xs[k], Y: ys[k], Values: vals[k], Reused: reused[k]}); err != nil {
				return err
			}
		}
	}
	return nil
}

// solvePoints returns one value slice per point (xs[k], ys[k]): each is
// offered to Options.Lookup first (reused[k] reports a hit) and the misses
// are solved on the pooled solvers, which stop starting points once ctx is
// done. Freshly solved points go to Options.Store in point order.
func (e *engine) solvePoints(ctx context.Context, xs, ys []float64) (vals [][]float64, reused []bool, err error) {
	vals, reused = make([][]float64, len(xs)), make([]bool, len(xs))
	var miss []int
	for k := range xs {
		if e.opt.Lookup != nil {
			vals[k], reused[k] = e.opt.Lookup(xs[k], ys[k])
		}
		if !reused[k] {
			miss = append(miss, k)
		}
	}
	sweep.RunRowsContext(ctx, len(e.solvers), len(miss), func(worker, i int) {
		if e.solvers[worker] == nil {
			e.solvers[worker] = e.r.prob.NewSolver()
		}
		k := miss[i]
		vals[k] = e.solvers[worker].Solve(xs[k], ys[k])
	})
	if ctx != nil && ctx.Err() != nil {
		return nil, nil, ctx.Err()
	}
	for k, v := range vals {
		if len(v) != len(e.r.prob.Layers) {
			return nil, nil, fmt.Errorf("refine: solver returned %d values, want %d layers", len(v), len(e.r.prob.Layers))
		}
		if !reused[k] && e.opt.Store != nil {
			e.opt.Store(xs[k], ys[k], v)
		}
	}
	return vals, reused, nil
}

// refineWave solves the centers of one depth level of the frontier, tests
// each cell against its center, and splits the cells that fail, returning
// the next frontier.
func (e *engine) refineWave(ctx context.Context, frontier []int32) ([]int32, error) {
	r := e.r
	tol := r.spec.Tol

	// Phase 1: solve every frontier cell's center in one wave.
	reqs := make([]latticePt, 0, len(frontier))
	for _, ci := range frontier {
		c := &r.cells[ci]
		h := int(c.span) / 2
		reqs = append(reqs, latticePt{ix: int(c.ix) + h, iy: int(c.iy) + h})
	}
	if err := e.solveWave(ctx, reqs); err != nil {
		return nil, err
	}

	// Phase 2: the center test. Accept the cell when the solved center
	// agrees with the bilinear prediction; otherwise mark it for splitting.
	var splits []int32
	for _, ci := range frontier {
		c := &r.cells[ci]
		ix, iy, span := int(c.ix), int(c.iy), int(c.span)
		h := span / 2
		v00 := r.points[r.key(ix, iy)]
		v10 := r.points[r.key(ix+span, iy)]
		v01 := r.points[r.key(ix, iy+span)]
		v11 := r.points[r.key(ix+span, iy+span)]
		vc := r.points[r.key(ix+h, iy+h)]
		split := false
		errC := 0.0
		for li := range r.prob.Layers {
			pred := 0.25 * (v00[li] + v10[li] + v01[li] + v11[li])
			d := (vc[li] - pred) / r.scale[li]
			if d < 0 {
				d = -d
			}
			if d > errC {
				errC = d
			}
		}
		if errC > tol*splitFrac {
			split = true
		}
		if r.indicator >= 0 && !split {
			li := r.indicator
			v := r.spec.IndicatorValue
			min, max := vc[li], vc[li]
			for _, s := range [4]float64{v00[li], v10[li], v01[li], v11[li]} {
				if s < min {
					min = s
				}
				if s > max {
					max = s
				}
			}
			if min < v && max > v {
				split = true
			}
		}
		if !split {
			r.stats.CellsVerified++
			if errC > r.centerErr {
				r.centerErr = errC
			}
			if err := e.finalizeLeaf(ci); err != nil {
				return nil, err
			}
			continue
		}
		splits = append(splits, ci)
	}

	// Phase 3: split. Solve the edge midpoints (centers are already in),
	// then create the four children.
	reqs = reqs[:0]
	for _, ci := range splits {
		c := &r.cells[ci]
		ix, iy, span := int(c.ix), int(c.iy), int(c.span)
		h := span / 2
		reqs = append(reqs,
			latticePt{ix: ix + h, iy: iy},
			latticePt{ix: ix + h, iy: iy + span},
			latticePt{ix: ix, iy: iy + h},
			latticePt{ix: ix + span, iy: iy + h},
		)
	}
	if err := e.solveWave(ctx, reqs); err != nil {
		return nil, err
	}
	next := make([]int32, 0, 4*len(splits))
	for _, ci := range splits {
		// Note: appending to r.cells may reallocate, so re-resolve the
		// node after the append.
		ix, iy := r.cells[ci].ix, r.cells[ci].iy
		h := r.cells[ci].span / 2
		d := r.cells[ci].depth + 1
		first := int32(len(r.cells))
		r.cells = append(r.cells,
			cellNode{ix: ix, iy: iy, span: h, depth: d, child: -1},
			cellNode{ix: ix + h, iy: iy, span: h, depth: d, child: -1},
			cellNode{ix: ix, iy: iy + h, span: h, depth: d, child: -1},
			cellNode{ix: ix + h, iy: iy + h, span: h, depth: d, child: -1},
		)
		r.cells[ci].child = first
		r.stats.CellsSplit++
		next = append(next, first, first+1, first+2, first+3)
	}
	return next, nil
}

// finalizeLeaf records the leaf's depth in the histogram and streams it.
func (e *engine) finalizeLeaf(ci int32) error {
	r := e.r
	c := &r.cells[ci]
	d := int(c.depth)
	if d > obs.MaxRefineDepth {
		d = obs.MaxRefineDepth
	}
	r.stats.LeafDepths[d]++
	if e.opt.OnLeaf == nil {
		return nil
	}
	return e.opt.OnLeaf(r.leaf(c))
}
