package alloc

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/netecon-sim/publicoption/internal/demand"
	"github.com/netecon-sim/publicoption/internal/numeric"
	"github.com/netecon-sim/publicoption/internal/traffic"
)

func smallEnsemble(seed uint64, n int) traffic.Population {
	cfg := traffic.PaperEnsemble(traffic.PhiCorrelated)
	cfg.N = n
	return cfg.Generate(numeric.NewRNG(seed))
}

func TestSolveUncongested(t *testing.T) {
	pop := traffic.Archetypes()
	total := pop.TotalUnconstrainedPerCapita() // 5500
	res := Solve(MaxMin{}, total+100, pop)
	if res.Constrained {
		t.Fatal("system should be unconstrained")
	}
	for i := range pop {
		if res.Theta[i] != pop[i].ThetaHat {
			t.Errorf("θ_%d = %v, want θ̂ = %v", i, res.Theta[i], pop[i].ThetaHat)
		}
		if d := res.Demand(i); d != 1 {
			t.Errorf("demand_%d = %v, want 1", i, d)
		}
	}
	if agg := res.Aggregate(); math.Abs(agg-total) > 1e-9 {
		t.Errorf("aggregate = %v, want %v", agg, total)
	}
}

func TestSolveCongestedWorkConservation(t *testing.T) {
	pop := traffic.Archetypes()
	for _, nu := range []float64{10, 100, 500, 1000, 2500, 5000} {
		res := Solve(MaxMin{}, nu, pop)
		if !res.Constrained {
			t.Fatalf("ν=%v should be constrained", nu)
		}
		if agg := res.Aggregate(); math.Abs(agg-nu) > 1e-6*nu {
			t.Errorf("ν=%v: aggregate = %v, want full utilization", nu, agg)
		}
	}
}

func TestSolveZeroCapacity(t *testing.T) {
	pop := traffic.Archetypes()
	res := Solve(MaxMin{}, 0, pop)
	for i := range pop {
		if res.Theta[i] != 0 {
			t.Errorf("θ_%d = %v at ν=0, want 0", i, res.Theta[i])
		}
	}
	if res.Aggregate() != 0 {
		t.Error("aggregate should be 0 at ν=0")
	}
}

func TestSolveEmptyPopulation(t *testing.T) {
	res := Solve(MaxMin{}, 100, nil)
	if len(res.Theta) != 0 || res.Constrained {
		t.Fatal("empty population should be trivially unconstrained")
	}
}

func TestSolvePanicsOnNegativeNu(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Solve(MaxMin{}, -1, traffic.Archetypes())
}

func TestSolveSystemMatchesPerCapita(t *testing.T) {
	pop := traffic.Archetypes()
	perCapita := Solve(MaxMin{}, 2000, pop)
	abs := SolveSystem(MaxMin{}, 5000, 2000*5000, pop)
	for i := range pop {
		if math.Abs(perCapita.Theta[i]-abs.Theta[i]) > 1e-9 {
			t.Errorf("θ_%d differs: %v vs %v", i, perCapita.Theta[i], abs.Theta[i])
		}
	}
}

// Theorem 1: the equilibrium is unique. We verify that the equilibrium level
// reached from different bisection sub-intervals containing the root gives
// the same θ profile, and that re-solving is deterministic.
func TestTheorem1Uniqueness(t *testing.T) {
	pop := smallEnsemble(3, 100)
	for _, nu := range []float64{1, 5, 10, 20} {
		a := Solve(MaxMin{}, nu, pop)
		b := Solve(MaxMin{}, nu, pop)
		for i := range pop {
			if a.Theta[i] != b.Theta[i] {
				t.Fatalf("non-deterministic equilibrium at ν=%v", nu)
			}
		}
		// Aggregate pins down the water level: any profile satisfying the
		// equilibrium conditions must have this aggregate (Axiom 2), and the
		// θ profile is a deterministic function of the level.
		if math.Abs(a.Aggregate()-math.Min(nu, pop.TotalUnconstrainedPerCapita())) > 1e-6*math.Max(nu, 1) {
			t.Fatalf("aggregate violates Axiom 2 at ν=%v", nu)
		}
	}
}

// Lemma 1: θ_i(ν) is non-decreasing and continuous in ν.
func TestLemma1MonotoneContinuousTheta(t *testing.T) {
	pop := traffic.Archetypes()
	grid := numeric.Linspace(0, 6000, 601)
	// One workspace along the grid: each level warm-starts the next.
	curves := make([][]float64, len(pop))
	for i := range curves {
		curves[i] = make([]float64, len(grid))
	}
	w := NewWorkspace(MaxMin{})
	for j, nu := range grid {
		res := w.Solve(nu, pop)
		for i := range pop {
			curves[i][j] = res.Theta[i]
		}
	}
	for i, curve := range curves {
		for j := 1; j < len(curve); j++ {
			if curve[j] < curve[j-1]-1e-6*pop[i].ThetaHat {
				t.Errorf("θ_%d(ν) not monotone: %v at ν=%v after %v", i, curve[j], grid[j], curve[j-1])
				break
			}
		}
	}
	// Continuity: a steep-but-continuous curve's largest grid jump shrinks
	// to zero as the grid is refined around it; a step discontinuity's jump
	// stays O(1). Locate the worst jump per CP and bisect the interval ten
	// times.
	for i := range pop {
		worst, at := 0.0, 0
		for j := 1; j < len(curves[i]); j++ {
			if d := curves[i][j] - curves[i][j-1]; d > worst {
				worst, at = d, j
			}
		}
		if worst == 0 {
			continue
		}
		lo, hi := grid[at-1], grid[at]
		thetaAt := func(nu float64) float64 { return Solve(MaxMin{}, nu, pop).Theta[i] }
		jump := worst
		for k := 0; k < 10; k++ {
			mid := (lo + hi) / 2
			l, m, h := thetaAt(lo), thetaAt(mid), thetaAt(hi)
			if m-l >= h-m {
				hi = mid
				jump = m - l
			} else {
				lo = mid
				jump = h - m
			}
		}
		// A step discontinuity keeps jump ≈ worst under refinement. A
		// continuous curve decays — though possibly slowly: near ν = 0 the
		// exponential demand family gives θ(ν) ~ c/ln(1/ν), whose grid jump
		// shrinks only logarithmically. 60% after ten halvings cleanly
		// separates the two.
		if jump > 0.6*worst+1e-9 {
			t.Errorf("θ_%d(ν): jump %v near ν=%v does not vanish under refinement (still %v)", i, worst, grid[at], jump)
		}
	}
}

// The Figure 3 shape: as ν grows, Google-type demand saturates first, then
// Skype-type, and Netflix-type last (§II-D).
func TestFig3DemandOrdering(t *testing.T) {
	pop := traffic.Archetypes() // google, netflix, skype
	reach := func(idx int) float64 {
		for _, nu := range numeric.Linspace(1, 6000, 2400) {
			res := Solve(MaxMin{}, nu, pop)
			if res.Demand(idx) >= 0.95 {
				return nu
			}
		}
		return math.Inf(1)
	}
	google, netflix, skype := reach(0), reach(1), reach(2)
	if !(google < skype && skype < netflix) {
		t.Fatalf("demand saturation order: google=%v skype=%v netflix=%v; want google < skype < netflix",
			google, skype, netflix)
	}
}

func TestMaxMinWaterLevelStructure(t *testing.T) {
	pop := traffic.Archetypes()
	res := Solve(MaxMin{}, 2000, pop)
	// Under per-user max-min every unconstrained-at-cap CP gets exactly the
	// water level; others get their cap.
	for i := range pop {
		want := math.Min(res.Level, pop[i].ThetaHat)
		if math.Abs(res.Theta[i]-want) > 1e-9 {
			t.Errorf("θ_%d = %v, want min(level, θ̂) = %v", i, res.Theta[i], want)
		}
	}
}

func TestAlphaFairUnitWeightsEqualsMaxMin(t *testing.T) {
	pop := smallEnsemble(9, 50)
	for _, alpha := range []float64{0.5, 1, 2, 8} {
		af := AlphaFair{Alpha: alpha}
		for _, nu := range []float64{1, 5, 15} {
			a := Solve(af, nu, pop)
			b := Solve(MaxMin{}, nu, pop)
			for i := range pop {
				if math.Abs(a.Theta[i]-b.Theta[i]) > 1e-8 {
					t.Fatalf("α=%v ν=%v: unit-weight α-fair deviates from max-min at CP %d: %v vs %v",
						alpha, nu, i, a.Theta[i], b.Theta[i])
				}
			}
		}
	}
}

func TestAlphaFairWeightsShiftAllocation(t *testing.T) {
	pop := traffic.Archetypes()
	weighted := AlphaFair{Alpha: 1, Weights: WeightByThetaHat}
	res := Solve(weighted, 2000, pop)
	base := Solve(MaxMin{}, 2000, pop)
	// Netflix (largest θ̂) must do strictly better under θ̂-weighted
	// proportional fairness than under max-min.
	if res.Theta[1] <= base.Theta[1] {
		t.Fatalf("weighting by θ̂ should favor Netflix: %v vs %v", res.Theta[1], base.Theta[1])
	}
	// And weights must not break work conservation.
	if math.Abs(res.Aggregate()-2000) > 1e-6*2000 {
		t.Fatalf("aggregate = %v, want 2000", res.Aggregate())
	}
}

func TestAlphaFairLargeAlphaApproachesMaxMin(t *testing.T) {
	pop := traffic.Archetypes()
	// Even with non-unit weights, α → ∞ kills the weight exponent.
	af := AlphaFair{Alpha: 200, Weights: WeightByThetaHat}
	a := Solve(af, 2000, pop)
	b := Solve(MaxMin{}, 2000, pop)
	for i := range pop {
		if math.Abs(a.Theta[i]-b.Theta[i]) > 0.05*pop[i].ThetaHat {
			t.Errorf("α=200: θ_%d = %v, max-min gives %v", i, a.Theta[i], b.Theta[i])
		}
	}
}

func TestAlphaFairPanicsOnBadParams(t *testing.T) {
	pop := traffic.Archetypes()
	for _, tc := range []struct {
		name string
		a    AlphaFair
	}{
		{"zero-alpha", AlphaFair{Alpha: 0}},
		{"negative-weight", AlphaFair{Alpha: 1, Weights: func(*traffic.CP) float64 { return -1 }}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			Solve(tc.a, 100, pop)
		})
	}
}

func TestPerCPMaxMinEqualizesAggregates(t *testing.T) {
	pop := traffic.Archetypes()
	res := Solve(PerCPMaxMin{}, 2000, pop)
	// Under per-CP max-min, congested CPs' per-capita aggregates equal the
	// level; others are capped below it.
	for i := range pop {
		y := res.PerCapitaRate(i)
		cap := pop[i].UnconstrainedPerCapitaRate()
		want := math.Min(res.Level, cap)
		if math.Abs(y-want) > 1e-5*math.Max(want, 1) {
			t.Errorf("CP %d aggregate %v, want min(level=%v, cap=%v)", i, y, res.Level, cap)
		}
	}
	if math.Abs(res.Aggregate()-2000) > 1e-5*2000 {
		t.Errorf("aggregate = %v, want 2000", res.Aggregate())
	}
}

func TestPerCPDiffersFromPerUserMaxMin(t *testing.T) {
	pop := traffic.Archetypes()
	perCP := Solve(PerCPMaxMin{}, 2000, pop)
	perUser := Solve(MaxMin{}, 2000, pop)
	// Netflix has small α and large θ̂: per-CP fairness must grant its users
	// strictly more per-user throughput than per-user max-min does.
	if perCP.Theta[1] <= perUser.Theta[1]*1.05 {
		t.Fatalf("expected per-CP max-min to favor Netflix users: %v vs %v", perCP.Theta[1], perUser.Theta[1])
	}
}

// Property-based: for random populations and random capacities, the
// equilibrium satisfies Axioms 1 and 2 under every mechanism.
func TestEquilibriumFeasibilityQuick(t *testing.T) {
	rng := numeric.NewRNG(77)
	mechanisms := []Allocator{MaxMin{}, AlphaFair{Alpha: 1}, AlphaFair{Alpha: 2, Weights: WeightByThetaHat}, PerCPMaxMin{}}
	f := func() bool {
		n := 1 + rng.Intn(30)
		pop := smallEnsemble(rng.Uint64(), n)
		total := pop.TotalUnconstrainedPerCapita()
		nu := rng.Uniform(0, 1.5*total)
		a := mechanisms[rng.Intn(len(mechanisms))]
		res := Solve(a, nu, pop)
		for i := range pop {
			if res.Theta[i] < 0 || res.Theta[i] > pop[i].ThetaHat*(1+1e-9) {
				return false
			}
		}
		want := math.Min(nu, total)
		return math.Abs(res.Aggregate()-want) <= 1e-6*math.Max(want, 1)
	}
	if err := quick.Check(func() bool { return f() }, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property-based: Lemma 1 monotonicity in ν for random populations.
func TestLemma1Quick(t *testing.T) {
	rng := numeric.NewRNG(79)
	f := func() bool {
		pop := smallEnsemble(rng.Uint64(), 1+rng.Intn(20))
		nu1 := rng.Uniform(0, pop.TotalUnconstrainedPerCapita())
		nu2 := rng.Uniform(0, pop.TotalUnconstrainedPerCapita())
		if nu1 > nu2 {
			nu1, nu2 = nu2, nu1
		}
		a := Solve(MaxMin{}, nu1, pop)
		b := Solve(MaxMin{}, nu2, pop)
		for i := range pop {
			if a.Theta[i] > b.Theta[i]+1e-8*math.Max(pop[i].ThetaHat, 1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(func() bool { return f() }, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Mixed demand families: the solver only needs Assumption 1, so equilibria
// must exist and be feasible for every family in the demand package.
func TestSolveAcrossDemandFamilies(t *testing.T) {
	pw, err := demand.NewPiecewise([]float64{0, 0.6, 1}, []float64{0, 0.3, 1})
	if err != nil {
		t.Fatal(err)
	}
	pop := traffic.Population{
		{Name: "exp", Alpha: 0.8, ThetaHat: 4, V: 0.5, Phi: 1, Curve: demand.Exponential{Beta: 3}},
		{Name: "const", Alpha: 0.5, ThetaHat: 2, V: 0.2, Phi: 0.4, Curve: demand.Constant{}},
		{Name: "linear", Alpha: 0.9, ThetaHat: 1, V: 0.8, Phi: 0.1, Curve: demand.Linear{Floor: 0.2}},
		{Name: "power", Alpha: 0.3, ThetaHat: 8, V: 0.1, Phi: 2, Curve: demand.Power{Gamma: 2}},
		{Name: "smoothstep", Alpha: 0.6, ThetaHat: 3, V: 0.6, Phi: 0.9, Curve: demand.SmoothStep{T: 0.5, K: 20}},
		{Name: "piecewise", Alpha: 0.4, ThetaHat: 5, V: 0.3, Phi: 0.7, Curve: pw},
	}
	if err := pop.Validate(); err != nil {
		t.Fatal(err)
	}
	total := pop.TotalUnconstrainedPerCapita()
	for _, frac := range []float64{0.1, 0.3, 0.5, 0.8, 0.99, 1.2} {
		res := Solve(MaxMin{}, frac*total, pop)
		want := math.Min(frac*total, total)
		if math.Abs(res.Aggregate()-want) > 1e-6*math.Max(want, 1) {
			t.Errorf("mixed families at %v×total: aggregate %v, want %v", frac, res.Aggregate(), want)
		}
	}
}

// Failure injection: extreme parameter regimes must not break the solver.
func TestSolveExtremeParameters(t *testing.T) {
	cases := []struct {
		name string
		pop  traffic.Population
		nu   float64
	}{
		{"huge-thetahat", traffic.Population{{
			Name: "big", Alpha: 1, ThetaHat: 1e12, V: 1, Phi: 1,
			Curve: demand.Exponential{Beta: 1},
		}}, 1e6},
		{"tiny-alpha", traffic.Population{{
			Name: "rare", Alpha: 1e-9, ThetaHat: 1, V: 1, Phi: 1,
			Curve: demand.Exponential{Beta: 1},
		}}, 1e-12},
		{"huge-beta", traffic.Population{{
			Name: "brittle", Alpha: 0.5, ThetaHat: 1, V: 1, Phi: 1,
			Curve: demand.Exponential{Beta: 1e6},
		}}, 0.1},
		{"zero-beta-degenerate", traffic.Population{{
			Name: "flat", Alpha: 0.5, ThetaHat: 1, V: 1, Phi: 1,
			Curve: demand.Exponential{Beta: 0},
		}}, 0.1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := Solve(MaxMin{}, tc.nu, tc.pop)
			for i, th := range res.Theta {
				if math.IsNaN(th) || th < 0 || th > tc.pop[i].ThetaHat*(1+1e-9) {
					t.Fatalf("θ_%d = %v invalid", i, th)
				}
			}
			want := math.Min(tc.nu, tc.pop.TotalUnconstrainedPerCapita())
			if agg := res.Aggregate(); math.Abs(agg-want) > 1e-5*math.Max(want, 1e-12) {
				t.Fatalf("aggregate %v, want %v", agg, want)
			}
		})
	}
}

// A mixed population spanning nine orders of magnitude in θ̂ still solves
// cleanly — relative tolerances must not be swamped by the giant.
func TestSolveWideDynamicRange(t *testing.T) {
	pop := traffic.Population{
		{Name: "iot", Alpha: 1, ThetaHat: 1e-3, V: 0.5, Phi: 1, Curve: demand.Exponential{Beta: 0.5}},
		{Name: "web", Alpha: 1, ThetaHat: 1, V: 0.5, Phi: 1, Curve: demand.Exponential{Beta: 1}},
		{Name: "bulk", Alpha: 1, ThetaHat: 1e6, V: 0.5, Phi: 1, Curve: demand.Exponential{Beta: 2}},
	}
	total := pop.TotalUnconstrainedPerCapita()
	for _, frac := range []float64{1e-6, 1e-3, 0.5, 0.99} {
		res := Solve(MaxMin{}, frac*total, pop)
		if agg := res.Aggregate(); math.Abs(agg-frac*total) > 1e-5*frac*total {
			t.Errorf("frac %v: aggregate %v, want %v", frac, agg, frac*total)
		}
	}
}
