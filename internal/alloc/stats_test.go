package alloc

import (
	"math"
	"math/rand"
	"testing"

	"github.com/netecon-sim/publicoption/internal/traffic"
)

// TestWorkspaceStats pins the solver-telemetry contract: Solves counts every
// Solve call, Constrained the congested subset, Evals counts work, the
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
	if st.Evals == 0 {
		t.Fatalf("constrained solve counted no evaluations: %+v", st)
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
// population and ν=0 count as solves without bracketing work, and the ν=0
// result is the zero allocation: level 0, every θ = 0, constrained, with a
// zero residual.
func TestWorkspaceStatsEmptyAndZeroNu(t *testing.T) {
	w := NewWorkspace(nil)
	w.Solve(1, nil)
	if st := w.Stats(); st.Solves != 1 || st.Evals != 0 {
		t.Fatalf("empty-population stats %+v", st)
	}
	rng := rand.New(rand.NewSource(5))
	pop := randomPopulation(rng, 8)
	w.Solve(0.5*pop.TotalUnconstrainedPerCapita(), pop) // leaves θ and a residual behind
	before := w.Stats()
	res := w.Solve(0, pop)
	d := w.Stats().Since(before)
	if st := w.Stats(); st.Solves != 3 || st.Constrained != 2 || st.Residual != 0 {
		t.Fatalf("ν=0 stats %+v", st)
	}
	if d.Evals != 0 || d.WarmBrackets+d.ColdBrackets != 0 {
		t.Fatalf("ν=0 solve did bracketing work: delta %+v", d)
	}
	if res.Level != 0 || !res.Constrained || res.Nu != 0 || len(res.Theta) != len(pop) {
		t.Fatalf("ν=0 result: level %v, constrained %v, ν %v, %d rates", res.Level, res.Constrained, res.Nu, len(res.Theta))
	}
	for i, th := range res.Theta {
		if th != 0 {
			t.Fatalf("ν=0 result gives CP %d rate %v, want 0", i, th)
		}
	}
}

// TestUncongestedResidualIsZero pins the documented Residual of the
// solves that search nothing: an uncongested solve and an empty
// population each read 0, whatever the congested solve before them left.
func TestUncongestedResidualIsZero(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	pop := randomPopulation(rng, 40)
	total := pop.TotalUnconstrainedPerCapita()
	w := NewWorkspace(nil)
	for _, next := range []struct {
		name string
		nu   float64
		pop  traffic.Population
	}{{"uncongested", 2 * total, pop}, {"empty population", 1, nil}} {
		// Search until a congested solve leaves a nonzero residual.
		for k := 1; w.Stats().Residual == 0; k++ {
			if k > 50 {
				t.Fatal("50 congested solves all recorded a zero residual")
			}
			w.Solve(total*float64(k)/51, pop)
		}
		w.Solve(next.nu, next.pop)
		if r := w.Stats().Residual; r != 0 {
			t.Errorf("%s solve after a congested one: residual %g, want 0", next.name, r)
		}
	}
}

// TestZeroNuKeepsWarmState pins that a ν = 0 solve leaves the warm state
// alone: a zero-capacity class solved between two loaded solves on one
// workspace does not change the second one's level bits or evaluations.
func TestZeroNuKeepsWarmState(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	pop := randomPopulation(rng, 50)
	idle := randomPopulation(rng, 12)
	total := pop.TotalUnconstrainedPerCapita()
	for _, mech := range []Allocator{MaxMin{}, AlphaFair{Alpha: 2}, PerCPMaxMin{}} {
		with, without := NewWorkspace(mech), NewWorkspace(mech)
		for k, frac := range []float64{0.3, 0.32, 0.5, 0.49} {
			nu := total * frac
			w0, o0 := with.Stats(), without.Stats()
			lw := with.Solve(nu, pop).Level
			lo := without.Solve(nu, pop).Level
			dw, do := with.Stats().Since(w0), without.Stats().Since(o0)
			if math.Float64bits(lw) != math.Float64bits(lo) || dw.Evals != do.Evals || dw.WarmBrackets != do.WarmBrackets {
				t.Fatalf("%s solve %d: level %v in %d evals after a ν=0 solve, %v in %d evals without",
					mech.Name(), k, lw, dw.Evals, lo, do.Evals)
			}
			with.Solve(0, idle)
		}
	}
}

// TestWarmProbeIsPredicted pins the first-order warm probe by its work:
// along a ν sweep of one 300-CP population, a warm solve averages at most
// 6.4 aggregate evaluations. It takes 5.65 with the probe at
// ℓ_prev + Δν/slope and 7.3 with the probe at the previous level.
func TestWarmProbeIsPredicted(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	pop := randomPopulation(rng, 300)
	total := pop.TotalUnconstrainedPerCapita()
	for _, mech := range []Allocator{MaxMin{}, AlphaFair{Alpha: 2}} {
		w := NewWorkspace(mech)
		w.Solve(0.3*total, pop)
		before := w.Stats()
		const steps = 40
		for k := 1; k <= steps; k++ {
			w.Solve((0.3+0.005*float64(k))*total, pop)
		}
		d := w.Stats().Since(before)
		if d.WarmBrackets != steps || 10*d.Evals > 64*steps {
			t.Fatalf("%s: %d of %d sweep solves warm, %d evaluations (budget 6.4 per solve)", mech.Name(), d.WarmBrackets, steps, d.Evals)
		}
	}
}

// TestWorkspaceResetMatchesFresh pins Reset's contract: after unrelated
// solves and a Reset, a workspace solves a sequence exactly as a fresh one
// does — bit-equal levels and the same per-solve telemetry — because Reset
// also forgets the previous ν and the bracket slope that predict the warm
// probe. The sequence warm-starts through the predicted probe, including
// across a ν = 0 solve, an uncongested one and a population change.
func TestWorkspaceResetMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	pop := randomPopulation(rng, 60)
	other := randomPopulation(rng, 35)
	total := pop.TotalUnconstrainedPerCapita()

	for _, mech := range []Allocator{MaxMin{}, AlphaFair{Alpha: 2}, PerCPMaxMin{}} {
		used := NewWorkspace(mech)
		for k := 0; k < 5; k++ {
			used.Solve(other.TotalUnconstrainedPerCapita()*(0.1+0.17*float64(k)), other)
		}
		if !(used.slope > 0) || used.warmNu == 0 {
			t.Fatalf("%s: no probe prediction on record before Reset (slope %v, ν %v)", mech.Name(), used.slope, used.warmNu)
		}
		used.Reset()
		fresh := NewWorkspace(mech)
		if used.warmLevel != fresh.warmLevel || used.warmHi != fresh.warmHi || used.hasWarm != fresh.hasWarm ||
			used.warmNu != fresh.warmNu || used.slope != fresh.slope {
			t.Fatalf("%s: warm state after Reset differs from a fresh workspace's", mech.Name())
		}
		var warm uint64
		for k, step := range []struct {
			frac float64
			pop  traffic.Population
		}{
			{1.0 / 3, pop}, {0.34, pop}, {0.36, pop}, {0, pop}, {0.35, pop}, {0.2, pop},
			{0.3, other}, {0.9, pop}, {1.2, pop}, {0.5, pop}, {0.52, pop},
		} {
			nu := step.frac * total
			u0, f0 := used.Stats(), fresh.Stats()
			lu := used.Solve(nu, step.pop).Level
			lf := fresh.Solve(nu, step.pop).Level
			if math.Float64bits(lu) != math.Float64bits(lf) {
				t.Fatalf("%s solve %d (ν = %g·total): level %v after Reset, %v fresh", mech.Name(), k, step.frac, lu, lf)
			}
			du, df := used.Stats().Since(u0), fresh.Stats().Since(f0)
			if du != df {
				t.Fatalf("%s solve %d (ν = %g·total): delta %+v after Reset, %+v fresh", mech.Name(), k, step.frac, du, df)
			}
			warm += du.WarmBrackets
		}
		if warm < 5 {
			t.Fatalf("%s: only %d warm-started solves in the sequence", mech.Name(), warm)
		}
	}
}

// TestResidualBoundsTrueError pins SolveStats.Residual as a bound: over
// random 200-CP congested solves, cold and warm, under every built-in
// mechanism, the recorded residual is at least the work-conservation error
// |Σ α_i·d_i(θ_i)·θ_i − ν| of the returned rates, recomputed through the
// generic CP methods with a compensated sum. The allowance of 16 ulps of
// the total covers the roundoff of the solver's own 200-term sum. (When
// the smaller, Illinois-halved endpoint residual was recorded, 7–10% of
// such solves understated the error beyond that allowance, the worst by
// 5e4×.) PerCPMaxMin's rates invert the level map by an inner bisection
// whose own error the level search does not see, so its residual also
// measures the returned rates (without that, solve 0 records 0 against a
// true error of 6.7e-13).
func TestResidualBoundsTrueError(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, mech := range []Allocator{MaxMin{}, AlphaFair{Alpha: 2}, AlphaFair{Alpha: 1, Weights: WeightByThetaHat}, PerCPMaxMin{}} {
		w := NewWorkspace(mech)
		var pop traffic.Population
		var total, ulp float64
		for k := 0; k < 300; k++ {
			if k%10 == 0 { // a new population: the next solve brackets cold
				pop = randomPopulation(rng, 200)
				total = pop.TotalUnconstrainedPerCapita()
				ulp = math.Nextafter(total, math.Inf(1)) - total
			}
			nu := total * (0.02 + 0.96*rng.Float64())
			res := w.Solve(nu, pop)
			if r, err := w.Stats().Residual, math.Abs(res.Aggregate()-nu); r+16*ulp < err {
				t.Fatalf("%s solve %d (ν = %v): recorded residual %g < true error %g", mech.Name(), k, nu, r, err)
			}
		}
	}
}
