package alloc

import (
	"math"
	"math/rand"
	"testing"
)

// TestWorkspaceStats pins the solver-telemetry contract: Solves counts every
// Solve call, Constrained the congested subset, Evals mirrors Evals(), the
// first constrained solve brackets cold, subsequent sweep solves bracket
// warm, and the recorded residual bounds the true |aggregate−ν| error.
func TestWorkspaceStats(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pop := randomPopulation(rng, 40)
	total := pop.TotalUnconstrainedPerCapita()
	w := NewWorkspace(MaxMin{})

	if !w.Stats().Zero() {
		t.Fatalf("fresh workspace stats %+v, want zero", w.Stats())
	}

	// Uncongested solve: counted, not constrained, no bracketing.
	w.Solve(2*total, pop)
	st := w.Stats()
	if st.Solves != 1 || st.Constrained != 0 || st.WarmBrackets+st.ColdBrackets != 0 {
		t.Fatalf("after uncongested solve: %+v", st)
	}

	// First constrained solve has no usable warm level for the constrained
	// range (warm level sits at hi): still counts a bracket.
	w.Reset()
	w.Solve(total/3, pop)
	st = w.Stats()
	if st.Solves != 2 || st.Constrained != 1 {
		t.Fatalf("after first constrained solve: %+v", st)
	}
	if st.ColdBrackets != 1 || st.WarmBrackets != 0 {
		t.Fatalf("first constrained solve should bracket cold: %+v", st)
	}
	if st.Evals == 0 || st.Evals != uint64(w.Evals()) {
		t.Fatalf("Evals mismatch: stats %d, Evals() %d", st.Evals, w.Evals())
	}

	// A sweep of nearby loads reuses the warm bracket every time.
	prev := st
	for k := 0; k < 10; k++ {
		nu := total * (1.0/3 + 0.01*float64(k+1))
		res := w.Solve(nu, pop)
		d := w.Stats().Since(prev)
		prev = w.Stats()
		if d.WarmBrackets != 1 || d.ColdBrackets != 0 {
			t.Fatalf("sweep solve %d bracketed cold: delta %+v", k, d)
		}
		// The recorded residual bounds the achieved work-conservation error.
		if agg := res.Aggregate(); math.Abs(agg-nu) > d.Residual+1e-9*total {
			t.Fatalf("sweep solve %d: |aggregate-ν| = %g exceeds recorded residual %g",
				k, math.Abs(agg-nu), d.Residual)
		}
	}

	// Reset drops the warm level, so the next solve brackets cold again.
	w.Reset()
	before := w.Stats()
	w.Solve(total/2, pop)
	if d := w.Stats().Since(before); d.ColdBrackets != 1 || d.WarmBrackets != 0 {
		t.Fatalf("post-Reset solve delta %+v, want one cold bracket", d)
	}
}

// TestWorkspaceStatsEmptyAndZeroNu covers the degenerate paths: an empty
// population and ν=0 count as solves without bracketing work.
func TestWorkspaceStatsEmptyAndZeroNu(t *testing.T) {
	w := NewWorkspace(nil)
	w.Solve(1, nil)
	if st := w.Stats(); st.Solves != 1 || st.Evals != 0 {
		t.Fatalf("empty-population stats %+v", st)
	}
	rng := rand.New(rand.NewSource(5))
	pop := randomPopulation(rng, 8)
	w.Solve(0, pop)
	st := w.Stats()
	if st.Solves != 2 || st.Constrained != 1 || st.Residual != 0 {
		t.Fatalf("ν=0 stats %+v", st)
	}
}

// TestWorkspaceResetMatchesFresh pins Reset's contract: after unrelated
// solves and a Reset, a workspace solves a sequence exactly as a fresh one
// does — bit-equal levels and the same per-solve telemetry — because Reset
// also forgets the previous level motion that sizes the warm bracket.
func TestWorkspaceResetMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	pop := randomPopulation(rng, 60)
	other := randomPopulation(rng, 35)
	total := pop.TotalUnconstrainedPerCapita()

	used := NewWorkspace(MaxMin{})
	for k := 0; k < 5; k++ {
		used.Solve(other.TotalUnconstrainedPerCapita()*(0.1+0.17*float64(k)), other)
	}
	used.Reset()
	fresh := NewWorkspace(MaxMin{})
	for k, frac := range []float64{1.0 / 3, 0.34, 0.36, 0.2, 0.9} {
		u0, f0 := used.Stats(), fresh.Stats()
		lu := used.Solve(total*frac, pop).Level
		lf := fresh.Solve(total*frac, pop).Level
		if math.Float64bits(lu) != math.Float64bits(lf) {
			t.Fatalf("solve %d (ν = %g·total): level %v after Reset, %v fresh", k, frac, lu, lf)
		}
		if du, df := used.Stats().Since(u0), fresh.Stats().Since(f0); du != df {
			t.Fatalf("solve %d (ν = %g·total): delta %+v after Reset, %+v fresh", k, frac, du, df)
		}
	}
}
