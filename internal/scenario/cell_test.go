package scenario

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/netecon-sim/publicoption/internal/alloc"
	"github.com/netecon-sim/publicoption/internal/sweep"
)

// purityCPs is the ensemble size of the purity test, and purityCols caps a
// grid's column count; every row is kept, the interior-κ ones included.
const (
	purityCPs  = 24
	purityCols = 9
)

// TestCellIsPureFunctionOfCoordinates pins the unit of the static solvers:
// a cell's values depend on its coordinates alone. One pooled worker
// visiting the cells in shuffled order, a fresh worker per cell, and
// RunGrid (Run for a 1-D sweep) at 1 and 4 workers all give the same bits,
// and the sampler's equilibria are the grid's.
func TestCellIsPureFunctionOfCoordinates(t *testing.T) {
	var scenarios []*Scenario
	for _, name := range append(GridNames(), "oligopoly-symmetric") {
		s, ok := Get(name)
		if !ok {
			t.Fatalf("missing built-in %s", name)
		}
		if k := s.Population.Kind; k == "paper" || k == "ensemble" {
			if err := s.ApplyEnsembleOverrides(7, purityCPs); err != nil {
				t.Fatal(err)
			}
		}
		if s.IsGrid() && s.Sweep.Points > purityCols {
			s.Sweep.Points = purityCols
		}
		scenarios = append(scenarios, s)
	}
	for _, s := range scenarios {
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			job, err := s.compile()
			if err != nil {
				t.Fatal(err)
			}
			fresh := make([]map[string]float64, job.Cells())
			for i := range fresh {
				fresh[i] = job.NewWorker().SolveCell(i/len(job.Xs), i%len(job.Xs)).Values
			}
			check := func(what string, i int, got map[string]float64) {
				t.Helper()
				for _, l := range job.Layers {
					if math.Float64bits(got[l]) != math.Float64bits(fresh[i][l]) {
						t.Errorf("%s: cell %d %s = %v, fresh worker %v", what, i, l, got[l], fresh[i][l])
					}
				}
			}

			pooled := job.NewWorker()
			for _, i := range rand.New(rand.NewSource(int64(len(s.Name)))).Perm(job.Cells()) {
				check("pooled worker, shuffled", i, pooled.SolveCell(i/len(job.Xs), i%len(job.Xs)).Values)
			}
			for _, workers := range []int{1, 4} {
				what := fmt.Sprintf("%d-worker run", workers)
				for i, vals := range runCells(t, s, job, workers) {
					check(what, i, vals)
				}
			}

			// The sampler's links, cell by cell, are a fresh worker's class
			// equilibria there.
			const maxCells = 3
			links, err := s.SampleEquilibria(SampleOptions{MaxCells: maxCells, Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			var want []*alloc.Result
			for _, i := range sweep.SampleIndices(job.Cells(), maxCells, 5) {
				_, eqs := job.NewWorker().solve(job.Xs[i%len(job.Xs)], job.Ys[i/len(job.Xs)])
				for _, pe := range eqs {
					if pe.eq == nil {
						continue
					}
					for _, res := range []*alloc.Result{pe.eq.Ordinary, pe.eq.Premium} {
						if res != nil && len(res.Pop) > 0 && res.Nu > 0 {
							want = append(want, res)
						}
					}
				}
			}
			if len(want) == 0 {
				t.Fatal("the sampled cells hold no class equilibrium to compare")
			}
			if len(links) != len(want) {
				t.Fatalf("sampler returned %d links, the grid's cells hold %d", len(links), len(want))
			}
			for k, l := range links {
				if !sameResult(l.Eq, want[k]) {
					t.Errorf("sampled link %s %s differs from the grid cell's equilibrium", l.Cell, l.Link())
				}
			}
		})
	}
}

// runCells solves s through RunGrid (a grid) or Run (a 1-D sweep) and
// returns each cell's values in row-major order.
func runCells(t *testing.T, s *Scenario, job *GridJob, workers int) []map[string]float64 {
	t.Helper()
	out := make([]map[string]float64, job.Cells())
	for i := range out {
		out[i] = make(map[string]float64)
	}
	if s.IsGrid() {
		g, err := s.RunGrid(RunOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range g.Layers {
			for r, row := range l.Z {
				for c, v := range row {
					out[r*len(job.Xs)+c][l.Name] = v
				}
			}
		}
		return out
	}
	tables, err := s.Run(RunOptions{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	for _, tbl := range tables {
		for _, sr := range tbl.Series {
			layer := tbl.YLabel + "/" + sr.Name
			if sr.Name == tbl.YLabel {
				layer = tbl.YLabel
			}
			for i, v := range sr.Y {
				out[i][layer] = v
			}
		}
	}
	return out
}

// sameResult reports whether two rate equilibria carry the same bits.
func sameResult(a, b *alloc.Result) bool {
	if math.Float64bits(a.Nu) != math.Float64bits(b.Nu) || math.Float64bits(a.Level) != math.Float64bits(b.Level) ||
		len(a.Theta) != len(b.Theta) || len(a.Pop) != len(b.Pop) {
		return false
	}
	for i := range a.Theta {
		if math.Float64bits(a.Theta[i]) != math.Float64bits(b.Theta[i]) {
			return false
		}
	}
	return true
}
