package scenario

import (
	"testing"
)

// The work budget of a sizing cell, about 1.05× the measured work. Before
// the kernels kept their warm state across zero-capacity classes and
// predicted their warm probe, these 16 cells took 2688 kernel solves (168
// per cell) and 7171 aggregate evaluations (448 per cell); after, 1792
// solves and 4704 evaluations. Since the migration search between a κ = 1
// incumbent and the Public Option takes secant steps instead of bisecting,
// they take 528 solves (33 per cell) and 1369 evaluations.
const (
	budgetSolvesPerCell = 35
	budgetEvals         = 1440
)

// TestSizingCellWorkBudget is the count-based regression gate of the
// sizing cell: it reads kernel work from the worker's telemetry, so it
// holds on any machine at any load. 16 cells of a seeded 1000-CP
// po-sizing-gamma-nu grid on one fresh GridWorker must average at most
// budgetSolvesPerCell kernel solves and take at most budgetEvals aggregate
// evaluations.
func TestSizingCellWorkBudget(t *testing.T) {
	sc, ok := Get("po-sizing-gamma-nu")
	if !ok {
		t.Fatal("missing built-in po-sizing-gamma-nu")
	}
	sc.Sweep.Points = 4 // × the built-in's 4 ν rows
	if err := sc.ApplyEnsembleOverrides(1, 1000); err != nil {
		t.Fatal(err)
	}
	job, err := sc.compile()
	if err != nil {
		t.Fatal(err)
	}
	w := job.NewWorker()
	for i := range job.Cells() {
		w.SolveCell(i/len(job.Xs), i%len(job.Xs))
	}
	st, cells := w.Stats(), uint64(job.Cells())
	t.Logf("%d cells: %d solves, %d evals (%d warm, %d cold brackets)", cells, st.Solves, st.Evals, st.WarmBrackets, st.ColdBrackets)
	if cells != 16 {
		t.Fatalf("%d cells, want 16", cells)
	}
	if st.Solves > budgetSolvesPerCell*cells {
		t.Errorf("%d solves over %d cells, budget %d per cell", st.Solves, cells, budgetSolvesPerCell)
	}
	if st.Evals > budgetEvals {
		t.Errorf("%d evaluations over %d cells, budget %d", st.Evals, cells, budgetEvals)
	}
}
