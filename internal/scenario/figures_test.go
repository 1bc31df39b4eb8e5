package scenario

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"github.com/netecon-sim/publicoption/internal/core"
	"github.com/netecon-sim/publicoption/internal/numeric"
	"github.com/netecon-sim/publicoption/internal/sweep"
)

// The figure parity golden holds the tables of the figure reproductions
// that preceded the figure built-ins, captured on a 120-CP ensemble at the
// default seed with reduced grids: 21 prices for fig4, 26 capacities for
// fig5, 11 prices for fig7, 18 capacities for fig8, capacities {0.4, 0.8}
// of saturation with the full-size search for regimes, and Public Option
// shares {0.1, 0.3, 0.5} for the capacity ablation. Series come in the
// order of the built-ins' rows: fig4 and fig7 one per capacity of
// figureNus, fig5 and fig8 one per strategy (κ, c) with κ varying fastest.
const parityGolden = "testdata/figure_parity.json"

// parityCPs is the ensemble size of the parity golden.
const parityCPs = 120

// parityCase replays built-ins at the golden's size: their ensemble shrunk
// to parityCPs and their column axis cut to the golden's grid.
type parityCase struct {
	golden   string   // key in the golden file
	builtins []string // the built-ins covering the golden's series, in order
	points   int      // column count, or 0 to keep the built-in's
	values   []float64
	// Tolerances: shares absolute, every other value relative.
	shareTol, relTol float64
	// rename maps a 1-D golden series to "metric/series" of the built-in's
	// tables; unlisted series keep their table's metric and their name.
	rename map[string]string
}

var parityCases = []parityCase{
	{golden: "fig4", builtins: []string{"fig4"}, points: 21, relTol: 1e-9},
	{golden: "fig5", builtins: []string{"fig5-c02", "fig5-c05", "fig5-c08"}, points: 26, relTol: 1e-9},
	// The figure grids settle consumer migration to 1e-7 where the old
	// reproduction stopped at 1e-6, hence the looser duopoly tolerances.
	{golden: "fig7", builtins: []string{"fig7"}, points: 11, shareTol: 1e-6, relTol: 1e-4},
	{golden: "fig8", builtins: []string{"fig8-c02", "fig8-c05", "fig8-c08"}, points: 18, shareTol: 1e-6, relTol: 1e-4},
	{golden: "regimes", builtins: []string{"regimes-comparison"}, values: []float64{0.4, 0.8}, relTol: 1e-9},
	{golden: "ablation-pubopt-capacity", builtins: []string{"ablation-pubopt-capacity"},
		values: []float64{0.1, 0.3, 0.5}, shareTol: 1e-9, relTol: 1e-9,
		rename: map[string]string{"phi-with-po": "phi/phi", "po-share": "share/public-option"}},
}

// replayed memoizes the built-ins solved at the golden's size, shared by
// the parity and shape tests.
var replayed struct {
	sync.Mutex
	grids  map[string]*sweep.Grid
	tables map[string][]*sweep.Table
}

// shrink returns the named built-in at the golden's ensemble size with its
// column axis cut to points evenly spaced values or to explicit values.
func shrink(t *testing.T, name string, points int, values []float64) *Scenario {
	t.Helper()
	s, ok := Get(name)
	if !ok {
		t.Fatalf("missing built-in %s", name)
	}
	if points > 0 {
		s.Sweep.Points = points
	}
	if values != nil {
		s.Sweep.Values = values
	}
	if err := s.ApplyEnsembleOverrides(0, parityCPs); err != nil {
		t.Fatal(err)
	}
	return s
}

func replayGrid(t *testing.T, name string, points int) *sweep.Grid {
	t.Helper()
	replayed.Lock()
	defer replayed.Unlock()
	if g, ok := replayed.grids[name]; ok {
		return g
	}
	g, err := shrink(t, name, points, nil).RunGrid(RunOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if replayed.grids == nil {
		replayed.grids = make(map[string]*sweep.Grid)
	}
	replayed.grids[name] = g
	return g
}

func replayTables(t *testing.T, name string, values []float64) []*sweep.Table {
	t.Helper()
	replayed.Lock()
	defer replayed.Unlock()
	if tables, ok := replayed.tables[name]; ok {
		return tables
	}
	tables, err := shrink(t, name, 0, values).Run(RunOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if replayed.tables == nil {
		replayed.tables = make(map[string][]*sweep.Table)
	}
	replayed.tables[name] = tables
	return tables
}

// figureCase returns the parity case of a golden key.
func figureCase(t *testing.T, golden string) parityCase {
	t.Helper()
	for _, pc := range parityCases {
		if pc.golden == golden {
			return pc
		}
	}
	t.Fatalf("no parity case %q", golden)
	return parityCase{}
}

// figureLayer returns the replayed layer of a grid figure's metric as one
// series per row, across the case's built-ins in order: the shape of the
// golden's tables.
func figureLayer(t *testing.T, golden, metric string) []sweep.Series {
	t.Helper()
	pc := figureCase(t, golden)
	var out []sweep.Series
	for _, name := range pc.builtins {
		g := replayGrid(t, name, pc.points)
		layer := metric
		if metric != MetricPhi {
			s, _ := Get(name)
			layer = metric + "/" + s.Providers[0].Name
		}
		z := g.Layer(layer)
		if z == nil {
			t.Fatalf("%s has no layer %q", name, layer)
		}
		for r := range g.Ys {
			out = append(out, sweep.Series{Name: fmt.Sprintf("%s row %d", name, r), X: g.Xs, Y: z.Z[r]})
		}
	}
	return out
}

// parityTable is a golden table as the file spells it: sweep.Table's
// fields under their Go names, not the wire names of its JSON tags.
type parityTable struct {
	Title, XLabel, YLabel string
	Series                []sweep.Series
}

func loadParityGolden(t *testing.T) map[string][]*sweep.Table {
	t.Helper()
	b, err := os.ReadFile(filepath.FromSlash(parityGolden))
	if err != nil {
		t.Fatal(err)
	}
	var file map[string][]parityTable
	if err := json.Unmarshal(b, &file); err != nil {
		t.Fatal(err)
	}
	golden := make(map[string][]*sweep.Table, len(file))
	for name, tables := range file {
		for _, pt := range tables {
			golden[name] = append(golden[name], &sweep.Table{Title: pt.Title, XLabel: pt.XLabel, YLabel: pt.YLabel, Series: pt.Series})
		}
	}
	return golden
}

// TestFigureBuiltinsMatchParityGolden replays every figure built-in at the
// golden's size and matches the tables of the reproductions it replaced.
func TestFigureBuiltinsMatchParityGolden(t *testing.T) {
	golden := loadParityGolden(t)
	if len(golden) != len(parityCases) {
		t.Fatalf("golden covers %d figures, the parity cases %d", len(golden), len(parityCases))
	}
	for _, pc := range parityCases {
		t.Run(pc.golden, func(t *testing.T) {
			tables, ok := golden[pc.golden]
			if !ok {
				t.Fatalf("golden has no %q", pc.golden)
			}
			for _, want := range tables {
				got := pc.replay(t, want)
				if len(got) != len(want.Series) {
					t.Fatalf("%s: %d replayed series, golden has %d", want.YLabel, len(got), len(want.Series))
				}
				for i, ws := range want.Series {
					tol, abs := pc.relTol, false
					if want.YLabel == MetricShare || strings.HasPrefix(pc.rename[ws.Name], MetricShare+"/") {
						tol, abs = pc.shareTol, true
					}
					compareSeries(t, pc.golden+" "+want.YLabel+" "+ws.Name, got[i], ws, tol, abs)
				}
			}
		})
	}
}

// replay returns the built-in series matching each series of a golden
// table, in order.
func (pc parityCase) replay(t *testing.T, want *sweep.Table) []sweep.Series {
	t.Helper()
	if pc.values == nil {
		return figureLayer(t, pc.golden, want.YLabel)
	}
	tables := replayTables(t, pc.builtins[0], pc.values)
	var out []sweep.Series
	for _, ws := range want.Series {
		metric, name := want.YLabel, ws.Name
		if to, ok := pc.rename[ws.Name]; ok {
			metric, name, _ = strings.Cut(to, "/")
		}
		out = append(out, seriesOf(t, tables, metric, name))
	}
	return out
}

func seriesOf(t *testing.T, tables []*sweep.Table, metric, name string) sweep.Series {
	t.Helper()
	for _, tbl := range tables {
		if tbl.YLabel != metric {
			continue
		}
		for _, s := range tbl.Series {
			if s.Name == name {
				return s
			}
		}
	}
	t.Fatalf("no %s series %q", metric, name)
	return sweep.Series{}
}

// compareSeries matches coordinates to rounding and values to tol, relative
// to the larger magnitude or, with abs, absolute.
func compareSeries(t *testing.T, what string, got, want sweep.Series, tol float64, abs bool) {
	t.Helper()
	if len(got.X) != len(want.X) {
		t.Fatalf("%s: %d points, golden has %d", what, len(got.X), len(want.X))
	}
	for i := range want.X {
		if d := math.Abs(got.X[i] - want.X[i]); d > 1e-12*math.Max(1, math.Abs(want.X[i])) {
			t.Fatalf("%s: x[%d] = %v, golden %v", what, i, got.X[i], want.X[i])
		}
		d, scale := math.Abs(got.Y[i]-want.Y[i]), 1.0
		if !abs {
			scale = math.Max(math.Abs(got.Y[i]), math.Abs(want.Y[i]))
		}
		if d > tol*scale {
			t.Errorf("%s: y[%d] (x=%.6g) = %.12g, golden %.12g", what, i, want.X[i], got.Y[i], want.Y[i])
		}
	}
}

// TestFigureShapes checks the qualitative shapes the paper reports on the
// figure built-ins replayed at the golden's size.
func TestFigureShapes(t *testing.T) {
	// row returns series k of a figure's metric, in the golden's order.
	row := func(t *testing.T, golden, metric string, k int) []float64 {
		return figureLayer(t, golden, metric)[k].Y
	}
	last := func(ys []float64) float64 { return ys[len(ys)-1] }
	t.Run("fig4", func(t *testing.T) {
		for _, k := range []int{0, 2, 4} { // ν = 20, 100, 200
			psi := row(t, "fig4", MetricPsi, k)
			// Ψ = c·ν starts at zero and rises while the class is congested,
			// and collapses at c = 1, which no CP (v ~ U[0,1]) affords.
			if psi[0] != 0 || psi[1] <= 0 || last(psi) > 1e-9 {
				t.Errorf("row %d: Ψ(0) = %v, Ψ(c_1) = %v, Ψ(1) = %v", k, psi[0], psi[1], last(psi))
			}
		}
		// Misalignment: at ν = 200, Φ(c) decreases somewhere.
		if numeric.MaxDownwardGap(row(t, "fig4", MetricPhi, 4)) <= 0 {
			t.Error("ν=200: Φ(c) never decreases")
		}
	})
	t.Run("fig5", func(t *testing.T) {
		small, big := row(t, "fig5", MetricPsi, 3), row(t, "fig5", MetricPsi, 5) // κ = 0.2, 0.9 at c = 0.5
		peak := small[numeric.ArgMax(small)]
		if peak <= 0 || last(small) > 0.25*peak {
			t.Errorf("κ=0.2: Ψ at abundant ν = %v, want far below its peak %v > 0", last(small), peak)
		}
		if last(big) < last(small) {
			t.Error("κ=0.9 should retain at least as much late revenue as κ=0.2")
		}
		for k, s := range figureLayer(t, "fig5", MetricPhi) {
			if _, hi := numeric.MinMax(s.Y); numeric.MaxDownwardGap(s.Y) > 0.25*hi {
				t.Errorf("strategy %d: Φ drops by more than a quarter of its maximum", k)
			}
		}
	})
	t.Run("fig7", func(t *testing.T) {
		share, psi, phi := row(t, "fig7", MetricShare, 2), row(t, "fig7", MetricPsi, 2), row(t, "fig7", MetricPhi, 2) // ν = 100
		if last(share) > 0.01 {
			t.Errorf("m_I at c=1 = %v, want ≈ 0", last(share))
		}
		for i, v := range phi {
			if v <= 0 {
				t.Errorf("Φ[%d] = %v: the Public Option keeps it positive", i, v)
			}
		}
		if psi[numeric.ArgMax(psi)] <= 0 || last(psi) > 1e-9 {
			t.Errorf("Ψ_I should rise above zero and end at zero, ends at %v", last(psi))
		}
	})
	t.Run("fig8", func(t *testing.T) {
		share := row(t, "fig8", MetricShare, 1) // κ = 0.5, c = 0.2
		for _, v := range share {
			if v < 0 || v > 1 {
				t.Fatalf("share %v out of range", v)
			}
		}
		// A small-κ incumbent's premium class empties at abundant capacity,
		// and the equilibrium selection returns the even split.
		if math.Abs(last(share)-0.5) > 0.05 {
			t.Errorf("abundant-ν share = %v, want ≈ 0.5", last(share))
		}
		// Φ barely depends on the incumbent's strategy.
		a, b := last(row(t, "fig8", MetricPhi, 0)), last(row(t, "fig8", MetricPhi, 8))
		if math.Abs(a-b) > 0.25*math.Max(a, b) {
			t.Errorf("abundant-ν Φ differs across strategies: %v vs %v", a, b)
		}
	})
}

// TestAppendixFiguresKeepPsi pins the appendix invariant: φ only weighs
// consumer surplus, so Figures 9 and 10 share every CP decision, and hence
// Ψ bit for bit, with Figures 4 and 5 — on re-seeded and re-sized
// ensembles too.
func TestAppendixFiguresKeepPsi(t *testing.T) {
	for _, pair := range [][2]string{
		{"fig4", "fig9"}, {"fig5-c02", "fig10-c02"}, {"fig5-c05", "fig10-c05"}, {"fig5-c08", "fig10-c08"},
	} {
		var psi [2]*sweep.GridLayer
		for i, name := range pair {
			s, _ := Get(name)
			s.Sweep.Points = 21
			if err := s.ApplyEnsembleOverrides(7, parityCPs); err != nil {
				t.Fatal(err)
			}
			g, err := s.RunGrid(RunOptions{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			psi[i] = g.Layer(MetricPsi + "/monopolist")
		}
		for r := range psi[0].Z {
			if !equalFloats(psi[0].Z[r], psi[1].Z[r]) {
				t.Fatalf("%s and %s: Ψ row %d differs", pair[0], pair[1], r)
			}
		}
	}
}

// TestMigrationGapNotMonotone pins why the migration search's selection
// rule matters: on fig8-c02 at the parity size, κ = 0.5, column 8, the
// surplus gap Φ_a(m) − Φ_b(1−m) changes sign three times within 0.0075 of
// share, because CPs switching classes move each ISP's surplus in jumps.
// A root search other than core's bisection may therefore select a
// different equilibrium, so replacing it is a numeric change, not a
// speed-up.
func TestMigrationGapNotMonotone(t *testing.T) {
	s := shrink(t, "fig8-c02", 18, nil)
	job, err := s.CompileGrid()
	if err != nil {
		t.Fatal(err)
	}
	nuBar := job.Xs[8]
	if math.Abs(nuBar-30.88) > 0.01 {
		t.Fatalf("column 8 is ν̄ = %v, want ≈ 30.88", nuBar)
	}
	a, b := s.Providers[0], s.Providers[1]
	incumbent := core.Strategy{Kappa: 0.5, C: a.C}
	if !b.PublicOption {
		t.Fatalf("provider %s is not the Public Option", b.Name)
	}
	// Each side solved cold, at its per-capita capacity γν̄/m.
	gap := func(m float64) float64 {
		phiA := core.NewSolver(nil).Competitive(incumbent, a.Gamma*nuBar/m, job.pop).Phi()
		phiB := core.NewSolver(nil).Competitive(core.PublicOption, b.Gamma*nuBar/(1-m), job.pop).Phi()
		return phiA - phiB
	}
	for _, c := range []struct {
		m        float64
		positive bool
	}{{0.4325, true}, {0.4350, false}, {0.4375, true}, {0.4400, false}} {
		if g := gap(c.m); (g > 0) != c.positive || g == 0 {
			t.Errorf("gap(%.4f) = %+.6g, want positive=%t", c.m, g, c.positive)
		}
	}
}
