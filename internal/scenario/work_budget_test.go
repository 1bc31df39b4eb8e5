package scenario

import (
	"runtime"
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

// budgetCellBytes is the byte budget of a warm cell: the cells of a
// seeded 1000-CP grid at 4 columns (16 sizing, 12 rebate), and the 6 cells
// of the best-responding ablation sweep at 200 CPs (each cell is a
// 33-candidate strategy search), solved again on the worker that solved
// them once. Measured: 512 B per sizing cell, the cell's layer map, metric
// point and ISP list, 704 B per rebate cell, and 1,264 B per ablation
// cell, which adds its candidate list and alternates between the worker's
// two outcomes. The budget is about 1.6× the largest, room for a few
// small allocations but not for one per-CP buffer: cloning a cell's two
// kept equilibria costs about 166 KiB at 1000 CPs, and a best response on
// two outcomes of its own about 95 KiB at 200 CPs.
const budgetCellBytes = 2 << 10

// TestSizingCellWarmBytes bounds the heap bytes of a warm sizing cell, a
// rebate cell and a best-response cell on one GridWorker: the worker
// solves every cell into its own market outcomes, so a cell allocates no
// per-CP buffer.
func TestSizingCellWarmBytes(t *testing.T) {
	for _, c := range []struct {
		name string
		cps  int
	}{{"po-sizing-gamma-nu", 1000}, {"po-rebate-sigma-nu", 1000}, {"ablation-pubopt-capacity", 200}} {
		name := c.name
		sc, ok := Get(name)
		if !ok {
			t.Fatal("missing built-in " + name)
		}
		if sc.IsGrid() {
			sc.Sweep.Points = 4
		}
		if err := sc.ApplyEnsembleOverrides(1, c.cps); err != nil {
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
		prev := runtime.GOMAXPROCS(1) // as testing.AllocsPerRun does
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := range job.Cells() {
			w.SolveCell(i/len(job.Xs), i%len(job.Xs))
		}
		runtime.ReadMemStats(&after)
		runtime.GOMAXPROCS(prev)
		bytes := (after.TotalAlloc - before.TotalAlloc) / uint64(job.Cells())
		t.Logf("%s: %d B per warm cell over %d cells", name, bytes, job.Cells())
		if bytes > budgetCellBytes {
			t.Errorf("%s: %d B per warm cell, budget %d", name, bytes, budgetCellBytes)
		}
	}
}
