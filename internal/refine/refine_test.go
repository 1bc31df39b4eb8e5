package refine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"github.com/netecon-sim/publicoption/internal/numeric"
)

// funcSolver adapts plain functions to PointSolver — one per layer.
type funcSolver struct {
	fs     []func(x, y float64) float64
	solves *int32 // optional shared solve counter (merge-phase reads only)
}

func (s *funcSolver) Solve(x, y float64) []float64 {
	out := make([]float64, len(s.fs))
	for i, f := range s.fs {
		out[i] = f(x, y)
	}
	return out
}

func problemOf(nx, ny int, fs ...func(x, y float64) float64) Problem {
	layers := make([]string, len(fs))
	for i := range fs {
		layers[i] = fmt.Sprintf("layer%d", i)
	}
	return Problem{
		Title:  "test",
		XLabel: "x", YLabel: "y",
		Xs:     numeric.Linspace(0, 1, nx),
		Ys:     numeric.Linspace(0, 1, ny),
		Layers: layers,
		NewSolver: func() PointSolver {
			return &funcSolver{fs: fs}
		},
	}
}

func TestPlanarFieldSolvesOnlySeedGrid(t *testing.T) {
	plane := func(x, y float64) float64 { return 2*x + 3*y - 1 }
	prob := problemOf(5, 4, plane)
	res, err := Run(context.Background(), prob, Spec{Tol: 0.01, MaxDepth: 3, Probes: 16}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats()
	if st.CellsSplit != 0 {
		t.Fatalf("planar field split %d cells, want 0", st.CellsSplit)
	}
	if st.PointsSolved != 5*4 {
		t.Fatalf("solved %d lattice points, want the 20 seed knots only", st.PointsSolved)
	}
	if st.ProbeSolves != 16 {
		t.Fatalf("solved %d probes, want 16", st.ProbeSolves)
	}
	if st.LeafDepths[0] != 4*3 {
		t.Fatalf("depth-0 leaves = %d, want 12", st.LeafDepths[0])
	}
	if !res.Verified() {
		t.Fatalf("planar surrogate not verified (maxErr=%g)", res.MaxError())
	}
	// Bilinear reproduces a plane exactly.
	for _, p := range [][2]float64{{0, 0}, {1, 1}, {0.3, 0.7}, {0.123, 0.456}} {
		got, err := res.At(p[0], p[1], 0)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-plane(p[0], p[1])) > 1e-12 {
			t.Fatalf("At(%v) = %g, want %g", p, got, plane(p[0], p[1]))
		}
	}
}

func TestKinkConcentratesSplits(t *testing.T) {
	const a = 0.475 // between knots of a 5-knot axis
	kink := func(x, y float64) float64 { return math.Abs(x - a) }
	prob := problemOf(5, 5, kink)
	res, err := Run(context.Background(), prob, Spec{Tol: 0.05, MaxDepth: 4, Probes: 32}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats()
	if st.CellsSplit == 0 {
		t.Fatal("kinked field refined nothing")
	}
	// Splits must concentrate on the kink column: every split cell spans it.
	for _, l := range res.Leaves() {
		if l.Depth > 0 && (l.X1 < a-0.26 || l.X0 > a+0.26) {
			t.Fatalf("deep leaf [%g,%g]×[%g,%g] far from the kink at x=%g", l.X0, l.X1, l.Y0, l.Y1, a)
		}
	}
	// Sub-linear: far fewer solves than the depth-equivalent dense lattice.
	nx, ny := res.FineDims()
	dense := uint64(nx * ny)
	if st.PointsSolved >= dense/2 {
		t.Fatalf("solved %d of %d dense points — refinement is not sub-linear", st.PointsSolved, dense)
	}
	// The surrogate tracks the field within tolerance away from knot dust.
	for _, p := range [][2]float64{{0.1, 0.2}, {0.9, 0.9}, {a, 0.5}, {0.51, 0.37}} {
		got, err := res.At(p[0], p[1], 0)
		if err != nil {
			t.Fatal(err)
		}
		if d := math.Abs(got-kink(p[0], p[1])) / res.Scale(0); d > res.Tolerance() {
			t.Fatalf("At(%v) normalized error %g > tol %g", p, d, res.Tolerance())
		}
	}
}

func TestIndicatorLayerForcesSplits(t *testing.T) {
	lin := func(x, y float64) float64 { return x - 0.5 } // sign change at x=0.5, inside a cell of a 4-knot axis
	probNoInd := problemOf(4, 4, lin)
	spec := Spec{Tol: 0.01, MaxDepth: 3, Probes: -1}
	res, err := Run(context.Background(), probNoInd, spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats().CellsSplit != 0 {
		t.Fatalf("linear field split %d cells without an indicator", res.Stats().CellsSplit)
	}
	spec.IndicatorLayer = "layer0"
	res, err = Run(context.Background(), probNoInd, spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats()
	if st.CellsSplit < 3 {
		t.Fatalf("indicator forced only %d splits, want ≥ 3 (one per row of the crossing column)", st.CellsSplit)
	}
	for _, l := range res.Leaves() {
		if l.Depth > 0 && (l.X1 < 0.5-1e-9 || l.X0 > 0.5+1e-9) {
			t.Fatalf("indicator split leaf [%g,%g] does not touch the x=0.5 boundary", l.X0, l.X1)
		}
	}
	if res.Verified() {
		t.Fatal("Probes<0 must leave the surrogate unverified")
	}
}

func TestUnknownIndicatorLayerErrors(t *testing.T) {
	prob := problemOf(3, 3, func(x, y float64) float64 { return x })
	_, err := Run(context.Background(), prob, Spec{IndicatorLayer: "nope"}, Options{})
	if err == nil {
		t.Fatal("unknown indicator layer must error")
	}
}

func TestOutOfRangeModes(t *testing.T) {
	prob := problemOf(3, 3, func(x, y float64) float64 { return x + y })
	res, err := Run(context.Background(), prob, Spec{Probes: 4}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range [][2]float64{{-0.1, 0.5}, {1.1, 0.5}, {0.5, -0.1}, {0.5, 1.1}, {math.NaN(), 0.5}} {
		if _, err := res.At(p[0], p[1], 0); !errors.Is(err, numeric.ErrOutOfRange) {
			t.Fatalf("At(%v) error = %v, want ErrOutOfRange", p, err)
		}
		if _, err := res.Values(p[0], p[1]); !errors.Is(err, numeric.ErrOutOfRange) {
			t.Fatalf("Values(%v) error = %v, want ErrOutOfRange", p, err)
		}
	}
	// Clamp mode answers from the nearest edge.
	if got := res.AtClamped(-5, 0.5, 0); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("AtClamped(-5, 0.5) = %g, want 0.5", got)
	}
	if got := res.AtClamped(2, 2, 0); math.Abs(got-2) > 1e-12 {
		t.Fatalf("AtClamped(2, 2) = %g, want 2", got)
	}
}

func TestDoctoredSurrogateFailsVerification(t *testing.T) {
	prob := problemOf(4, 4, func(x, y float64) float64 { return x + 2*y })
	spec := Spec{Tol: 0.01, MaxDepth: 2, Probes: 32}
	res, err := Run(context.Background(), prob, spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified() {
		t.Fatalf("healthy surrogate must verify (maxErr=%g)", res.MaxError())
	}
	// Doctor the surrogate: shift every stored knot value. The solver
	// truth is unchanged, so re-running the probe pass must catch it.
	for _, v := range res.points {
		v[0] += 10 * res.Scale(0)
	}
	if err := newEngine(res, Options{}).reverify(context.Background()); err != nil {
		t.Fatal(err)
	}
	if res.Verified() {
		t.Fatal("doctored surrogate still verified — the error bound is not falsifiable")
	}
	if res.MaxError() < 5 {
		t.Fatalf("doctored MaxError = %g, want ≈ 10", res.MaxError())
	}
}

func TestDeterministicAcrossWorkers(t *testing.T) {
	wavy := func(x, y float64) float64 { return math.Sin(3*x) * math.Cos(2*y) }
	spec := Spec{Tol: 0.005, MaxDepth: 3, Probes: 16}
	var baseline []byte
	var baseStats any
	for _, workers := range []int{1, 4, 16} {
		res, err := Run(context.Background(), problemOf(4, 4, wavy), spec, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := res.Flatten(25, 25).WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		if baseline == nil {
			baseline = buf.Bytes()
			baseStats = res.Stats()
			continue
		}
		if !bytes.Equal(baseline, buf.Bytes()) {
			t.Fatalf("workers=%d produced different flattened CSV bytes", workers)
		}
		if !reflect.DeepEqual(baseStats, res.Stats()) {
			t.Fatalf("workers=%d produced different stats: %+v vs %+v", workers, res.Stats(), baseStats)
		}
	}
}

func TestLookupStoreRoundTrip(t *testing.T) {
	wavy := func(x, y float64) float64 { return math.Sin(3*x) * math.Cos(2*y) }
	spec := Spec{Tol: 0.005, MaxDepth: 3, Probes: 16}
	type point struct{ x, y float64 }
	stored := map[point][]float64{}
	points := 0
	first, err := Run(context.Background(), problemOf(4, 4, wavy), spec, Options{
		Store: func(x, y float64, vals []float64) {
			if len(vals) != 1 {
				t.Fatalf("Store got %d values at (%g, %g), want 1 layer", len(vals), x, y)
			}
			stored[point{x, y}] = vals
			points++
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := uint64(points), first.Stats().PointsSolved+first.Stats().ProbeSolves; got != want {
		t.Fatalf("Store saw %d points, stats say %d solved", got, want)
	}
	// Warm re-run: every point must come from Lookup, nothing re-solves.
	lookups := 0
	warm, err := Run(context.Background(), problemOf(4, 4, wavy), spec, Options{
		Lookup: func(x, y float64) ([]float64, bool) {
			lookups++
			v, ok := stored[point{x, y}]
			return v, ok
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := warm.Stats(); st.PointsSolved != 0 || st.ProbeSolves != 0 || st.PointsReused != uint64(points) {
		t.Fatalf("warm run solved %d points + %d probes and reused %d, want 0 + 0 and %d", st.PointsSolved, st.ProbeSolves, st.PointsReused, points)
	}
	if lookups != len(stored) {
		t.Fatalf("warm run made %d lookups for %d stored points", lookups, len(stored))
	}
	if warm.MaxError() != first.MaxError() || warm.Verified() != first.Verified() {
		t.Fatal("warm run disagrees with cold run")
	}
}

func TestCallbackErrorsAbort(t *testing.T) {
	prob := problemOf(3, 3, func(x, y float64) float64 { return x * y })
	boom := errors.New("boom")
	if _, err := Run(context.Background(), prob, Spec{}, Options{
		OnPoint: func(p Point) error { return boom },
	}); !errors.Is(err, boom) {
		t.Fatalf("OnPoint error not propagated: %v", err)
	}
	if _, err := Run(context.Background(), prob, Spec{}, Options{
		OnLeaf: func(l Leaf) error { return boom },
	}); !errors.Is(err, boom) {
		t.Fatalf("OnLeaf error not propagated: %v", err)
	}
}

func TestContextCancellationStopsRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	n := 0
	prob := problemOf(4, 4, func(x, y float64) float64 { return math.Sin(9 * x * y) })
	prob.NewSolver = func() PointSolver {
		return &funcSolver{fs: []func(x, y float64) float64{func(x, y float64) float64 {
			n++
			if n > 5 {
				cancel()
			}
			return math.Sin(9 * x * y)
		}}}
	}
	if _, err := Run(ctx, prob, Spec{Tol: 1e-6, MaxDepth: 4, Probes: 8}, Options{Workers: 1}); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled run returned %v, want context.Canceled", err)
	}
}

func TestZeroAllocHotPaths(t *testing.T) {
	// The curvature estimator's inner kernel...
	xs := numeric.Linspace(0, 1, 9)
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = math.Sin(3 * x)
	}
	pch := numeric.NewPCHIP(xs, ys)
	lin := numeric.NewLinearInterp(xs, ys)
	var sink float64
	if allocs := testing.AllocsPerRun(200, func() {
		sink += screenDev(pch, lin, 0.37)
	}); allocs != 0 {
		t.Fatalf("screenDev allocates %v per run, want 0", allocs)
	}
	// ...and the surrogate evaluation behind warm /v1/query and Flatten.
	res, err := Run(context.Background(), problemOf(4, 4, func(x, y float64) float64 { return math.Sin(3*x) * y }),
		Spec{Tol: 0.01, MaxDepth: 3, Probes: -1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		sink += res.eval(0.371, 0.642, 0)
	}); allocs != 0 {
		t.Fatalf("surrogate eval allocates %v per run, want 0", allocs)
	}
	_ = sink
}

func TestFlattenMatchesTruthWithinTolerance(t *testing.T) {
	f := func(x, y float64) float64 { return math.Sin(4*x) + 0.5*math.Cos(3*y) }
	res, err := Run(context.Background(), problemOf(5, 5, f), Spec{Tol: 0.02, MaxDepth: 4, Probes: 64}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified() {
		t.Fatalf("smooth field did not verify: maxErr=%g tol=%g", res.MaxError(), res.Tolerance())
	}
	nx, ny := res.FineDims()
	g := res.Flatten(nx, ny)
	worst := 0.0
	for row, y := range g.Ys {
		for col, x := range g.Xs {
			if d := math.Abs(g.Layers[0].Z[row][col]-f(x, y)) / res.Scale(0); d > worst {
				worst = d
			}
		}
	}
	// The dense flattened output tracks the truth within tolerance (small
	// slack: probes bound the error statistically, not pointwise).
	if worst > 1.5*res.Tolerance() {
		t.Fatalf("flattened max normalized error %g exceeds tolerance %g", worst, res.Tolerance())
	}
}
