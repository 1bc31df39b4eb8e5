package refine

import (
	"context"
	"fmt"
	"sort"

	"github.com/netecon-sim/publicoption/internal/numeric"
	"github.com/netecon-sim/publicoption/internal/obs"
	"github.com/netecon-sim/publicoption/internal/sweep"
)

// Stats returns the run's telemetry (work done, leaf-depth histogram).
func (r *Result) Stats() obs.RefineStats { return r.stats }

// Tolerance returns the resolved relative tolerance.
func (r *Result) Tolerance() float64 { return r.spec.Tol }

// Layers returns the metric layer names, in solver order.
func (r *Result) Layers() []string { return r.prob.Layers }

// Bounds returns the surrogate's domain.
func (r *Result) Bounds() (x0, x1, y0, y1 float64) {
	return r.prob.Xs[0], r.prob.Xs[len(r.prob.Xs)-1], r.prob.Ys[0], r.prob.Ys[len(r.prob.Ys)-1]
}

// FineDims returns the virtual fine-lattice dimensions — the resolution at
// which a dense solve would be depth-equivalent to this refinement.
func (r *Result) FineDims() (nx, ny int) { return r.w, r.h }

// Scale returns the per-layer error normalization (the layer's seed-grid
// value range, floored).
func (r *Result) Scale(layer int) float64 { return r.scale[layer] }

// MaxError returns the worst normalized surrogate error observed anywhere:
// the accepted center-test errors during refinement and, when verification
// ran, the off-knot probe errors.
func (r *Result) MaxError() float64 {
	if r.probeErr > r.centerErr {
		return r.probeErr
	}
	return r.centerErr
}

// Verified reports whether probe verification ran and every observed error
// stayed within tolerance. Callers promising the error bound (the /v1/query
// surrogate path) must fall back to a real solve when this is false.
func (r *Result) Verified() bool { return r.verified }

// seedCell locates the seed-cell index containing x (clamped to the edge
// cells), such that knots[i] ≤ x ≤ knots[i+1] for in-range x.
//
//pubopt:hotpath
func seedCell(knots []float64, x float64) int {
	i := sort.SearchFloat64s(knots, x)
	if i > 0 {
		i--
	}
	if i > len(knots)-2 {
		i = len(knots) - 2
	}
	return i
}

// eval descends the quadtree to the leaf containing (x, y) and evaluates
// its bilinear patch for one layer. Callers guarantee (x, y) in bounds.
// This is the surrogate's inner loop — a warm /v1/query and every flattened
// cell go through it — so it must not allocate.
//
//pubopt:hotpath
func (r *Result) eval(x, y float64, layer int) float64 {
	ci := int32(seedCell(r.prob.Ys, y)*r.nSeedX + seedCell(r.prob.Xs, x))
	for r.cells[ci].child >= 0 {
		c := &r.cells[ci]
		h := c.span >> 1
		q := c.child
		if x >= r.coordX(int(c.ix+h)) {
			q += 1
		}
		if y >= r.coordY(int(c.iy+h)) {
			q += 2
		}
		ci = q
	}
	c := &r.cells[ci]
	ix, iy, span := int(c.ix), int(c.iy), int(c.span)
	x0, x1 := r.coordX(ix), r.coordX(ix+span)
	y0, y1 := r.coordY(iy), r.coordY(iy+span)
	tx := (x - x0) / (x1 - x0)
	ty := (y - y0) / (y1 - y0)
	v00 := r.points[r.key(ix, iy)][layer]
	v10 := r.points[r.key(ix+span, iy)][layer]
	v01 := r.points[r.key(ix, iy+span)][layer]
	v11 := r.points[r.key(ix+span, iy+span)][layer]
	return (v00*(1-tx)+v10*tx)*(1-ty) + (v01*(1-tx)+v11*tx)*ty
}

// checkBounds rejects queries outside the surrogate's domain (or NaN),
// wrapping numeric.ErrOutOfRange so callers can errors.Is it.
func (r *Result) checkBounds(x, y float64) error {
	x0, x1, y0, y1 := r.Bounds()
	if x < x0 || x > x1 || x != x { //pubopt:allow(floatcmp): x != x is the NaN test
		return fmt.Errorf("%w: %s=%g outside [%g, %g]", numeric.ErrOutOfRange, r.prob.XLabel, x, x0, x1)
	}
	if y < y0 || y > y1 || y != y { //pubopt:allow(floatcmp): y != y is the NaN test
		return fmt.Errorf("%w: %s=%g outside [%g, %g]", numeric.ErrOutOfRange, r.prob.YLabel, y, y0, y1)
	}
	return nil
}

// At evaluates one layer of the surrogate in checked mode: out-of-domain
// queries error with numeric.ErrOutOfRange instead of clamping, because the
// solver-verified error bound says nothing outside the refined domain.
func (r *Result) At(x, y float64, layer int) (float64, error) {
	if layer < 0 || layer >= len(r.prob.Layers) {
		return 0, fmt.Errorf("refine: layer index %d outside [0,%d)", layer, len(r.prob.Layers))
	}
	if err := r.checkBounds(x, y); err != nil {
		return 0, err
	}
	return r.eval(x, y, layer), nil
}

// clamp pulls (x, y) into the domain, absorbing floating-point dust at
// the Linspace endpoints in Flatten.
func (r *Result) clamp(x, y float64) (float64, float64) {
	x0, x1, y0, y1 := r.Bounds()
	if !(x > x0) { //pubopt:allow(floatcmp): NaN-safe clamp
		x = x0
	}
	if x > x1 {
		x = x1
	}
	if !(y > y0) { //pubopt:allow(floatcmp): NaN-safe clamp
		y = y0
	}
	if y > y1 {
		y = y1
	}
	return x, y
}

// Values evaluates every layer at (x, y) in checked mode.
func (r *Result) Values(x, y float64) ([]float64, error) {
	if err := r.checkBounds(x, y); err != nil {
		return nil, err
	}
	out := make([]float64, len(r.prob.Layers))
	for li := range out {
		out[li] = r.eval(x, y, li)
	}
	return out, nil
}

// Flatten renders the refined surface as a dense nx × ny grid — the bridge
// back to the existing heatmap and CSV tooling. Resolutions below 2 per
// axis are raised to 2.
func (r *Result) Flatten(nx, ny int) *sweep.Grid {
	if nx < 2 {
		nx = 2
	}
	if ny < 2 {
		ny = 2
	}
	x0, x1, y0, y1 := r.Bounds()
	g := sweep.NewGrid(r.prob.Title, r.prob.XLabel, r.prob.YLabel,
		numeric.Linspace(x0, x1, nx), numeric.Linspace(y0, y1, ny), r.prob.Layers)
	for row, y := range g.Ys {
		for col, x := range g.Xs {
			// Clamp against floating-point dust at the Linspace endpoints.
			cx, cy := r.clamp(x, y)
			for li := range g.Layers {
				g.Layers[li].Z[row][col] = r.eval(cx, cy, li)
			}
		}
	}
	return g
}

// Leaves materializes the leaf cells in deterministic creation order
// (roots row-major, then children by refinement wave).
func (r *Result) Leaves() []Leaf {
	var out []Leaf
	for i := range r.cells {
		c := &r.cells[i]
		if c.child >= 0 {
			continue
		}
		out = append(out, r.leaf(c))
	}
	return out
}

// leaf materializes cell c as a Leaf with its corner values.
func (r *Result) leaf(c *cellNode) Leaf {
	ix, iy, span := int(c.ix), int(c.iy), int(c.span)
	l := Leaf{
		X0: r.coordX(ix), X1: r.coordX(ix + span),
		Y0: r.coordY(iy), Y1: r.coordY(iy + span),
		Depth:   int(c.depth),
		Corners: make([][4]float64, len(r.prob.Layers)),
	}
	v00 := r.points[r.key(ix, iy)]
	v10 := r.points[r.key(ix+span, iy)]
	v01 := r.points[r.key(ix, iy+span)]
	v11 := r.points[r.key(ix+span, iy+span)]
	for li := range l.Corners {
		l.Corners[li] = [4]float64{v00[li], v10[li], v01[li], v11[li]}
	}
	return l
}

// reverify runs the solver-verified error bound: solve spec.Probes off-knot
// points (deterministically drawn from spec.Seed) and compare each against
// the surrogate. Probes are points like any lattice point: each flows
// through the Lookup/Store hooks, so a warm re-verification solves nothing.
// Resets and recomputes probeErr/verified — the falsifiability tests rely
// on a doctored surrogate failing here.
func (e *engine) reverify(ctx context.Context) error {
	r := e.r
	r.probeErr = 0
	r.verified = false
	if r.spec.Probes <= 0 {
		return nil
	}
	x0, x1, y0, y1 := r.Bounds()
	rng := numeric.NewRNG(r.spec.Seed)
	xs, ys := make([]float64, r.spec.Probes), make([]float64, r.spec.Probes)
	for k := range xs {
		xs[k], ys[k] = rng.Uniform(x0, x1), rng.Uniform(y0, y1)
	}
	truths, reused, err := e.solvePoints(ctx, xs, ys)
	if err != nil {
		return err
	}
	for k, truth := range truths {
		if reused[k] {
			r.stats.PointsReused++
		} else {
			r.stats.ProbeSolves++
		}
		for li := range r.prob.Layers {
			d := (truth[li] - r.eval(xs[k], ys[k], li)) / r.scale[li]
			if d < 0 {
				d = -d
			}
			if d > r.probeErr {
				r.probeErr = d
			}
		}
	}
	r.verified = r.probeErr <= r.spec.Tol
	return nil
}
