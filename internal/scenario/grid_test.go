package scenario

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"
)

// tinyGridScenario is a cheap, fully explicit grid for engine tests: a
// two-CP constant-demand population under incumbent-vs-Public-Option entry,
// swept over γ (columns) × ν (rows).
func tinyGridScenario(t *testing.T) *Scenario {
	t.Helper()
	s, err := LoadString(`{
		"name": "tiny-grid", "title": "tiny γ×ν grid",
		"population": {"kind": "explicit", "cps": [
			{"name": "wide", "alpha": 1, "theta_hat": 2, "v": 0.5, "phi": 1,
			 "demand": {"family": "constant"}},
			{"name": "fat", "alpha": 0.5, "theta_hat": 4, "v": 0.5, "phi": 0.5,
			 "demand": {"family": "constant"}}
		]},
		"providers": [
			{"name": "incumbent", "gamma": 0.5, "kappa": 1, "c": 0.4},
			{"name": "po", "gamma": 0.5, "public_option": true}
		],
		"sweep": {"axis": "poshare", "lo": 0.2, "hi": 0.4, "points": 3,
		          "metrics": ["phi", "share"],
		          "grid": {"axis": "nu", "values": [1, 2]}}
	}`)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestGridValidationRejects(t *testing.T) {
	base := `{
		"name": "t", "title": "t",
		"population": {"kind": "paper"},
		"providers": [
			{"name": "a", "gamma": 0.5, "kappa": 1, "c": 0.4},
			{"name": "po", "gamma": 0.5, "public_option": true}
		],
		"sweep": SWEEP
	}`
	cases := []struct {
		name  string
		sweep string
		want  string
	}{
		{"duplicate axes", `{"axis": "nu", "lo": 0.1, "hi": 1, "points": 3,
			"grid": {"axis": "nu", "lo": 0.2, "hi": 0.8, "points": 2}}`,
			"duplicates the sweep axis"},
		{"unknown row axis", `{"axis": "nu", "lo": 0.1, "hi": 1, "points": 3,
			"grid": {"axis": "volume", "points": 2}}`,
			"unknown grid row axis"},
		{"empty row grid", `{"axis": "nu", "lo": 0.1, "hi": 1, "points": 3,
			"grid": {"axis": "poshare"}}`,
			"empty sweep grid"},
		{"non-finite row bound", `{"axis": "nu", "lo": 0.1, "hi": 1, "points": 3,
			"grid": {"axis": "poshare", "lo": 0.1, "hi": 1e999, "points": 2}}`,
			""}, // 1e999 overflows float64: the JSON decoder rejects it first

		{"NaN explicit column value", `{"axis": "nu", "values": [0.5, NaN],
			"grid": {"axis": "poshare", "lo": 0.1, "hi": 0.4, "points": 2}}`,
			""}, // NaN is not even valid JSON: any parse error is fine
		{"reversed row bounds", `{"axis": "nu", "lo": 0.1, "hi": 1, "points": 3,
			"grid": {"axis": "poshare", "lo": 0.4, "hi": 0.1, "points": 3}}`,
			"hi > lo"},
		{"row value outside domain", `{"axis": "nu", "lo": 0.1, "hi": 1, "points": 3,
			"grid": {"axis": "poshare", "values": [0.5, 1.5]}}`,
			"outside (0,1)"},
		{"missing fixed nu", `{"axis": "price", "lo": 0, "hi": 1, "points": 3,
			"grid": {"axis": "kappa", "lo": 0, "hi": 1, "points": 2}}`,
			"fixed capacity"},
		{"non-finite fixed nu", `{"axis": "price", "lo": 0, "hi": 1, "points": 3, "nu": 1e999,
			"grid": {"axis": "kappa", "lo": 0, "hi": 1, "points": 2}}`,
			""}, // 1e999 overflows float64: the JSON decoder rejects it
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := LoadString(strings.Replace(base, "SWEEP", tc.sweep, 1))
			if err == nil {
				t.Fatalf("invalid grid sweep accepted")
			}
			if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestGridValidationNonFiniteProgrammatic(t *testing.T) {
	// JSON cannot express NaN/Inf, but scenarios built in code can; the
	// validator must still reject them.
	s := tinyGridScenario(t)
	s.Sweep.Grid.Values = []float64{1, math.NaN()}
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "non-finite") {
		t.Fatalf("NaN row value accepted (err=%v)", err)
	}
	s = tinyGridScenario(t)
	s.Sweep.Grid.Values = []float64{1, math.Inf(1)}
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "non-finite") {
		t.Fatalf("Inf row value accepted (err=%v)", err)
	}
	s = tinyGridScenario(t)
	s.Sweep.Lo, s.Sweep.Hi, s.Sweep.Points, s.Sweep.Values = math.Inf(-1), 1, 4, nil
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "non-finite") {
		t.Fatalf("-Inf column bound accepted (err=%v)", err)
	}
}

func TestGridValidationAxisConstraintsApplyToRowAxis(t *testing.T) {
	// The row axis must satisfy the same market-shape constraints as the
	// column axis: a poshare row axis needs a Public Option second.
	_, err := LoadString(`{
		"name": "t", "title": "t",
		"population": {"kind": "paper"},
		"providers": [
			{"name": "a", "gamma": 0.5, "kappa": 1, "c": 0.4},
			{"name": "b", "gamma": 0.5}
		],
		"sweep": {"axis": "price", "lo": 0, "hi": 1, "points": 3, "nu": 0.4,
		          "of_saturation": true,
		          "grid": {"axis": "poshare", "lo": 0.1, "hi": 0.4, "points": 2}}
	}`)
	if err == nil || !strings.Contains(err.Error(), "Public Option") {
		t.Fatalf("poshare row axis without a Public Option accepted (err=%v)", err)
	}
}

func TestGridValidationRejectsRegulationAndBatch(t *testing.T) {
	_, err := LoadString(`{
		"name": "t", "title": "t",
		"population": {"kind": "paper"},
		"regulation": {},
		"sweep": {"axis": "nu", "values": [0.4], "of_saturation": true,
		          "grid": {"axis": "poshare", "values": [0.3]}}
	}`)
	if err == nil || !strings.Contains(err.Error(), "regulation comparisons do not support grid") {
		t.Fatalf("regulation grid accepted (err=%v)", err)
	}
	_, err = LoadString(`{
		"name": "t", "title": "t",
		"population": {"kind": "ensemble", "n": 1000, "batch": 500},
		"providers": [{"name": "a", "gamma": 1}],
		"sweep": {"axis": "nu", "values": [0.4], "of_saturation": true,
		          "grid": {"axis": "kappa", "values": [0.5]}}
	}`)
	if err == nil || !strings.Contains(err.Error(), "batched populations sweep capacity only") {
		t.Fatalf("batched grid accepted (err=%v)", err)
	}
}

func TestRunRejectsGridAndRunGridRejectsSweep(t *testing.T) {
	s := tinyGridScenario(t)
	if _, err := s.Run(RunOptions{Workers: 1}); err == nil || !strings.Contains(err.Error(), "RunGrid") {
		t.Fatalf("Run accepted a grid scenario (err=%v)", err)
	}
	flat, err := LoadString(`{
		"name": "flat", "title": "flat",
		"population": {"kind": "archetypes"},
		"providers": [{"name": "a", "gamma": 1}],
		"sweep": {"axis": "nu", "values": [1000]}
	}`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := flat.RunGrid(RunOptions{Workers: 1}); err == nil || !strings.Contains(err.Error(), "Run") {
		t.Fatalf("RunGrid accepted a 1-D scenario (err=%v)", err)
	}
}

func TestCompileGridLayersAndCells(t *testing.T) {
	job, err := tinyGridScenario(t).CompileGrid()
	if err != nil {
		t.Fatal(err)
	}
	if job.Cells() != 6 {
		t.Fatalf("Cells() = %d, want 6", job.Cells())
	}
	want := []string{"phi", "share/incumbent", "share/po"}
	if len(job.Layers) != len(want) {
		t.Fatalf("layers %v, want %v", job.Layers, want)
	}
	for i := range want {
		if job.Layers[i] != want[i] {
			t.Fatalf("layers %v, want %v", job.Layers, want)
		}
	}
	if job.XAxis != AxisPOShare || job.YAxis != AxisNu {
		t.Fatalf("axes %s×%s, want poshare×nu", job.XAxis, job.YAxis)
	}
}

func TestGridRowMatchesOneDimensionalSweep(t *testing.T) {
	// A grid row at fixed ν must reproduce the 1-D sweep at that ν bit for
	// bit: both run through GridJob.SolveCells, and a cell is a pure
	// function of its coordinates, so the grid's (γ, ν) cell is the 1-D
	// sweep's γ point at that ν.
	s := tinyGridScenario(t)
	g, err := s.RunGrid(RunOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	for row, nu := range []float64{1, 2} {
		oneD := tinyGridScenario(t)
		oneD.Sweep.Grid = nil
		oneD.Sweep.Nu = nu
		tables, err := oneD.Run(RunOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		// tables[0] is phi (one series); tables[1] is share (per provider).
		phiRow, err := g.Row("phi", row)
		if err != nil {
			t.Fatal(err)
		}
		for i := range phiRow.X {
			want := tables[0].Series[0].Y[i]
			if math.Float64bits(phiRow.Y[i]) != math.Float64bits(want) {
				t.Errorf("phi(γ=%g, ν=%g) = %g via grid, %g via 1-D sweep",
					phiRow.X[i], nu, phiRow.Y[i], want)
			}
		}
		shareRow, err := g.Row("share/po", row)
		if err != nil {
			t.Fatal(err)
		}
		for i := range shareRow.X {
			want := tables[1].Series[1].Y[i]
			if math.Float64bits(shareRow.Y[i]) != math.Float64bits(want) {
				t.Errorf("share_po(γ=%g, ν=%g) = %g via grid, %g via 1-D sweep",
					shareRow.X[i], nu, shareRow.Y[i], want)
			}
		}
	}
}

// Every cell is a pure function of its coordinates — its pooled worker
// resets the warm state first — so a run's values are bit-identical at any
// worker count. duopoly-price-kappa on a 60-CP ensemble used to move by
// 2.5e-5 at (c=0, κ=0.75) when a worker carried its warm solver from one
// claimed row into the next, and monopoly-capacity and neutral-baseline
// moved in their last bits when a 1-D sweep's chunks followed the worker
// count.
func TestGridDeterministicAcrossWorkerCounts(t *testing.T) {
	builtin := func(name string) func(*testing.T) *Scenario {
		return func(t *testing.T) *Scenario {
			s, ok := Get(name)
			if !ok {
				t.Fatalf("%s not registered", name)
			}
			if err := s.ApplyEnsembleOverrides(7, 60); err != nil {
				t.Fatal(err)
			}
			return s
		}
	}
	for _, tc := range []struct {
		name    string
		build   func(*testing.T) *Scenario
		workers []int
	}{
		{"tiny-grid", tinyGridScenario, []int{1, 4}},
		{"duopoly-price-kappa", builtin("duopoly-price-kappa"), []int{1, 2, 4, 8}},
		{"monopoly-price-sweep", builtin("monopoly-price-sweep"), []int{1, 2, 8}},
		{"public-option-sizing", builtin("public-option-sizing"), []int{1, 2, 8}},
		{"monopoly-capacity", builtin("monopoly-capacity"), []int{1, 2, 8}},
		{"neutral-baseline", builtin("neutral-baseline"), []int{1, 2, 8}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := runValues(t, tc.build(t), tc.workers[0])
			for _, w := range tc.workers[1:] {
				got := runValues(t, tc.build(t), w)
				for k, a := range want {
					if b := got[k]; math.Float64bits(a) != math.Float64bits(b) {
						t.Errorf("%s: %v with %d workers, %v with %d", k, a, tc.workers[0], b, w)
					}
				}
			}
		})
	}
}

// runValues solves s at the given worker count — RunGrid for a grid, Run
// for a 1-D sweep — and returns every value keyed by layer or series and
// position.
func runValues(t *testing.T, s *Scenario, workers int) map[string]float64 {
	t.Helper()
	vals := make(map[string]float64)
	if s.IsGrid() {
		g, err := s.RunGrid(RunOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range g.Layers {
			for r, row := range l.Z {
				for c, v := range row {
					vals[fmt.Sprintf("layer %s cell (%d,%d)", l.Name, r, c)] = v
				}
			}
		}
		return vals
	}
	tables, err := s.Run(RunOptions{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	for _, tbl := range tables {
		for _, sr := range tbl.Series {
			for i, v := range sr.Y {
				vals[fmt.Sprintf("%s series %s point %d", tbl.YLabel, sr.Name, i)] = v
			}
		}
	}
	return vals
}

// cellSpec is the address of cell (row, col): the job's UnitSpec, then
// the cell's resolved coordinates, bit for bit.
func cellSpec(j *GridJob, row, col int) string {
	b, err := json.Marshal(j.UnitSpec())
	if err != nil {
		panic(err)
	}
	return fmt.Sprintf("%s@%x,%x", b, math.Float64bits(j.Xs[col]), math.Float64bits(j.Ys[row]))
}

func TestUnitSpecStableUnderGridResize(t *testing.T) {
	// Renaming, retitling, adding rows and dropping columns must keep the
	// shared cells' addresses: UnitSpec ignores cosmetic fields and the
	// axis values, and a cell adds only its own coordinates.
	compile := func(edit func(s *Scenario)) *GridJob {
		s := tinyGridScenario(t)
		edit(s)
		j, err := s.CompileGrid()
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	a := compile(func(*Scenario) {})
	b := compile(func(s *Scenario) {
		s.Name = "renamed"
		s.Title = "another title"
		s.Sweep.Grid.Values = []float64{1, 1.5, 2} // one new row, two old
	})
	// ν=1 is row 0 in both; ν=2 moved from row 1 to row 2.
	for col := range a.Xs {
		if cellSpec(a, 0, col) != cellSpec(b, 0, col) || cellSpec(a, 1, col) != cellSpec(b, 2, col) {
			t.Fatalf("a renamed grid with an added row changed shared column %d's cell spec", col)
		}
		if cellSpec(b, 1, col) == cellSpec(b, 0, col) || cellSpec(b, 1, col) == cellSpec(b, 2, col) {
			t.Fatal("distinct rows share a cell spec")
		}
	}
	for col := 1; col < len(a.Xs); col++ {
		if cellSpec(a, 0, col) == cellSpec(a, 0, col-1) {
			t.Fatal("distinct columns share a cell spec")
		}
	}
	// A sub-grid that keeps a subset of the columns keeps their cells.
	sub := compile(func(s *Scenario) { s.Sweep.Values = []float64{a.Xs[0], a.Xs[2]} })
	for row := range a.Ys {
		if cellSpec(sub, row, 0) != cellSpec(a, row, 0) || cellSpec(sub, row, 1) != cellSpec(a, row, 2) {
			t.Fatalf("a sub-grid of the columns changed row %d's shared cell specs", row)
		}
	}
	// A changed column list changes the cells it moves, no others.
	cols := compile(func(s *Scenario) { s.Sweep.Points = 4 })
	if cellSpec(cols, 0, 1) == cellSpec(a, 0, 1) {
		t.Fatal("a moved column kept its cell spec")
	}
	// A changed provider strategy must change the spec.
	prov := compile(func(s *Scenario) { s.Providers[0].C = 0.5 })
	if cellSpec(prov, 0, 0) == cellSpec(a, 0, 0) {
		t.Fatal("provider edit did not reach the unit spec")
	}
}

func TestBuiltinGridRowMatchesPublicOptionSizing(t *testing.T) {
	// The acceptance check of the γ×ν built-in: its ν=0.4·sat row must
	// match the existing 1-D public-option-sizing sweep (which fixes
	// ν=0.4·sat) point for point.
	if testing.Short() {
		t.Skip("solves two paper-population sweeps")
	}
	grid2d, ok := Get("po-sizing-gamma-nu")
	if !ok {
		t.Fatal("missing built-in po-sizing-gamma-nu")
	}
	// Keep only the ν=0.4 row so the test stays fast.
	grid2d.Sweep.Grid.Values = []float64{0.4}
	g, err := grid2d.RunGrid(RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	oneD, ok := Get("public-option-sizing")
	if !ok {
		t.Fatal("missing built-in public-option-sizing")
	}
	tables, err := oneD.Run(RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	phiRow, err := g.Row("phi", 0)
	if err != nil {
		t.Fatal(err)
	}
	phi1D := tables[0].Series[0]
	if phiRow.Len() != phi1D.Len() {
		t.Fatalf("grid row has %d points, 1-D sweep %d", phiRow.Len(), phi1D.Len())
	}
	for i := range phiRow.X {
		if diff := math.Abs(phiRow.Y[i] - phi1D.Y[i]); diff > 1e-6*(1+math.Abs(phi1D.Y[i])) {
			t.Errorf("Φ(γ=%g): grid %g vs 1-D %g", phiRow.X[i], phiRow.Y[i], phi1D.Y[i])
		}
	}
}
