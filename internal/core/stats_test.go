package core

import "testing"

// TestSolverStats pins the class-game telemetry contract: Stats sums the
// three kernels' counters, grows monotonically across solves, and stays
// safe on a solver that has not yet built its kernels.
func TestSolverStats(t *testing.T) {
	if fresh := NewSolver(nil).Stats(); !fresh.Zero() {
		t.Fatalf("fresh solver stats %+v, want zero", fresh)
	}

	pop := ensemble(4, 60)
	nu := 0.4 * pop.TotalUnconstrainedPerCapita()
	s := NewSolver(nil)
	eq := s.Competitive(Strategy{Kappa: 0.5, C: 0.4}, nu, pop)
	if !eq.Converged {
		t.Fatal("solve did not converge")
	}
	st := s.Stats()
	if st.Solves == 0 || st.Evals == 0 {
		t.Fatalf("competitive solve left stats empty: %+v", st)
	}
	// The dynamics re-solve both class equilibria every move: far more
	// kernel solves than the two finalize calls.
	if st.Solves < 4 {
		t.Fatalf("only %d kernel solves recorded for a full dynamics run", st.Solves)
	}

	// A second solve only adds.
	s.Competitive(Strategy{Kappa: 0.3, C: 0.5}, nu, pop)
	st2 := s.Stats()
	d := st2.Since(st)
	if d.Solves == 0 || d.Evals == 0 {
		t.Fatalf("second solve added nothing: delta %+v (before %+v, after %+v)", d, st, st2)
	}
}
