package core

import (
	"math"
	"testing"

	"github.com/netecon-sim/publicoption/internal/alloc"
	"github.com/netecon-sim/publicoption/internal/econ"
	"github.com/netecon-sim/publicoption/internal/numeric"
	"github.com/netecon-sim/publicoption/internal/traffic"
)

func ensemble(seed uint64, n int) traffic.Population {
	cfg := traffic.PaperEnsemble(traffic.PhiCorrelated)
	cfg.N = n
	return cfg.Generate(numeric.NewRNG(seed))
}

func TestCompetitiveKappaZeroIsNeutral(t *testing.T) {
	pop := ensemble(1, 80)
	nu := 0.5 * pop.TotalUnconstrainedPerCapita()
	s := NewSolver(nil)
	eq := s.Competitive(Strategy{Kappa: 0, C: 0.5}, nu, pop)
	if !eq.Converged {
		t.Fatal("κ=0 must converge trivially")
	}
	if eq.PremiumCount() != 0 {
		t.Fatalf("κ=0 put %d CPs in premium", eq.PremiumCount())
	}
	// Surplus must equal the single-class surplus of the whole population.
	if got, want := eq.Phi(), econ.PhiAt(alloc.MaxMin{}, nu, pop); math.Abs(got-want) > 1e-9*want {
		t.Fatalf("Φ = %v, want neutral %v", got, want)
	}
	if eq.Psi() != 0 {
		t.Fatal("κ=0 must give zero ISP revenue")
	}
}

func TestCompetitiveKappaOneAffordabilityPartition(t *testing.T) {
	pop := ensemble(2, 80)
	nu := 0.3 * pop.TotalUnconstrainedPerCapita()
	s := NewSolver(nil)
	c := 0.4
	eq := s.Competitive(Strategy{Kappa: 1, C: c}, nu, pop)
	if !eq.Converged {
		t.Fatal("κ=1 did not converge")
	}
	for i := range pop {
		if eq.InPremium[i] != (pop[i].V > c) {
			t.Fatalf("CP %d (v=%v): premium=%t, want affordability v>c", i, pop[i].V, eq.InPremium[i])
		}
		if !eq.InPremium[i] && eq.Theta[i] != 0 {
			t.Fatalf("ordinary CP %d has θ=%v with zero ordinary capacity", i, eq.Theta[i])
		}
	}
}

func TestCompetitiveRevenueRegimes(t *testing.T) {
	pop := ensemble(3, 100)
	sat := pop.TotalUnconstrainedPerCapita()
	nu := 0.2 * sat // scarce: premium congested at low prices
	s := NewSolver(nil)

	// Regime 1: small c, capacity fully used → Ψ = c·ν (Figure 4's linear
	// segment).
	eqLow := s.Competitive(Strategy{Kappa: 1, C: 0.05}, nu, pop)
	if got, want := eqLow.Psi(), 0.05*nu; math.Abs(got-want) > 1e-6*want {
		t.Errorf("low-price Ψ = %v, want c·ν = %v", got, want)
	}
	// Regime 2: c above every v → empty premium, zero revenue.
	eqHigh := s.Competitive(Strategy{Kappa: 1, C: 1.5}, nu, pop)
	if eqHigh.PremiumCount() != 0 || eqHigh.Psi() != 0 {
		t.Errorf("unaffordable price kept %d CPs, Ψ=%v", eqHigh.PremiumCount(), eqHigh.Psi())
	}
}

func TestCompetitiveInteriorKappaConverges(t *testing.T) {
	pop := ensemble(4, 120)
	sat := pop.TotalUnconstrainedPerCapita()
	s := NewSolver(nil)
	for _, kappa := range []float64{0.2, 0.5, 0.9} {
		for _, c := range []float64{0.1, 0.45, 0.8} {
			for _, frac := range []float64{0.1, 0.4, 0.9, 1.5} {
				eq := s.Competitive(Strategy{Kappa: kappa, C: c}, frac*sat, pop)
				if !eq.Converged {
					t.Errorf("(κ=%v,c=%v,ν=%v·sat): not converged after %d iters, %d violations",
						kappa, c, frac, eq.Iterations, s.VerifyCompetitive(eq, 0))
					continue
				}
				if v := s.VerifyCompetitive(eq, 0); v != 0 {
					t.Errorf("(κ=%v,c=%v,ν=%v·sat): converged but %d violations at ε=%v", kappa, c, frac, v, eq.EpsUsed)
				}
				// The band should stay modest: CPs are near-optimal.
				if eq.EpsUsed > 1e-3 {
					t.Errorf("(κ=%v,c=%v,ν=%v·sat): indifference band widened to %v", kappa, c, frac, eq.EpsUsed)
				}
			}
		}
	}
}

func TestCompetitiveWarmStartConsistency(t *testing.T) {
	pop := ensemble(5, 90)
	nu := 0.35 * pop.TotalUnconstrainedPerCapita()
	s := NewSolver(nil)
	strat := Strategy{Kappa: 0.6, C: 0.3}
	cold := s.Competitive(strat, nu, pop)
	warm := s.CompetitiveFrom(strat, nu, pop, cold.InPremium)
	if warm.Iterations > 1 {
		t.Errorf("warm start from the equilibrium should converge immediately, took %d", warm.Iterations)
	}
	for i := range pop {
		if cold.InPremium[i] != warm.InPremium[i] {
			t.Fatalf("warm start changed the equilibrium at CP %d", i)
		}
	}
}

func TestCompetitiveEmptyPopulation(t *testing.T) {
	s := NewSolver(nil)
	eq := s.Competitive(Strategy{Kappa: 0.5, C: 0.5}, 10, nil)
	if !eq.Converged || eq.Phi() != 0 || eq.Psi() != 0 {
		t.Fatal("empty population should give a trivial zero equilibrium")
	}
}

func TestCompetitivePanicsOnBadInput(t *testing.T) {
	s := NewSolver(nil)
	for _, tc := range []struct {
		name  string
		strat Strategy
		nu    float64
	}{
		{"bad-kappa", Strategy{Kappa: 1.2, C: 0}, 1},
		{"bad-c", Strategy{Kappa: 0.5, C: -1}, 1},
		{"bad-nu", Strategy{Kappa: 0.5, C: 0.5}, -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			s.Competitive(tc.strat, tc.nu, ensemble(6, 5))
		})
	}
}

func TestFreePremiumClassAttractsCPs(t *testing.T) {
	// With c = 0 and κ = 0.5, the premium class is just extra capacity:
	// CPs spread out so that both classes carry traffic.
	pop := ensemble(7, 80)
	nu := 0.3 * pop.TotalUnconstrainedPerCapita()
	s := NewSolver(nil)
	eq := s.Competitive(Strategy{Kappa: 0.5, C: 0}, nu, pop)
	if eq.PremiumCount() == 0 || eq.PremiumCount() == len(pop) {
		t.Fatalf("free premium class should split the CPs, got %d/%d", eq.PremiumCount(), len(pop))
	}
	if eq.Psi() != 0 {
		t.Fatal("free premium class must earn nothing")
	}
	// Total carried traffic must still fill the link.
	if u := eq.Utilization(); math.Abs(u-1) > 1e-6 {
		t.Fatalf("utilization = %v, want 1 (work conservation across classes)", u)
	}
}

func TestTheorem3ScaleInvariance(t *testing.T) {
	// The equilibrium depends on (M, µ) only through ν: solving the scaled
	// system must reproduce the partition and surpluses (Theorem 3 +
	// Lemma 3). The per-capita API enforces this structurally; this test
	// pins the wrapper arithmetic.
	pop := ensemble(8, 60)
	nuI := 0.4 * pop.TotalUnconstrainedPerCapita()
	s := NewSolver(nil)
	strat := Strategy{Kappa: 0.7, C: 0.25}
	base := s.Competitive(strat, nuI, pop)
	for _, xi := range []float64{0.5, 2, 100} {
		m := 1000.0 * xi
		mu := nuI * 1000.0 * xi
		scaled := s.Competitive(strat, mu/m, pop)
		for i := range pop {
			if base.InPremium[i] != scaled.InPremium[i] {
				t.Fatalf("ξ=%v: partition differs at CP %d", xi, i)
			}
		}
		if math.Abs(base.Phi()-scaled.Phi()) > 1e-9*math.Max(base.Phi(), 1) {
			t.Fatalf("ξ=%v: Φ differs (%v vs %v)", xi, base.Phi(), scaled.Phi())
		}
		if math.Abs(base.Psi()-scaled.Psi()) > 1e-9*math.Max(base.Psi(), 1) {
			t.Fatalf("ξ=%v: Ψ differs", xi)
		}
	}
}

func TestClassEquilibriumAccessors(t *testing.T) {
	pop := ensemble(9, 40)
	nu := 0.3 * pop.TotalUnconstrainedPerCapita()
	s := NewSolver(nil)
	eq := s.Competitive(Strategy{Kappa: 0.5, C: 0.2}, nu, pop)
	// A CP's utility must be consistent with class membership and θ.
	for i := range pop {
		price := 0.0
		if eq.InPremium[i] {
			price = 0.2
		}
		want := (pop[i].V - price) * pop[i].PerCapitaRate(eq.Theta[i])
		if got := econ.CPUtilityPerCapita(&eq.Pop[i], eq.Theta[i], price); math.Abs(got-want) > 1e-12 {
			t.Fatalf("CPUtilityPerCapita(%d) = %v, want %v", i, got, want)
		}
	}
	if got := eq.Premium.Aggregate(); got < 0 || got > nu+1e-9 {
		t.Fatalf("premium rate %v outside [0, ν]", got)
	}
	if str := eq.String(); str == "" {
		t.Fatal("String() empty")
	}
}

func TestTrivialMatchesCompetitiveAtExtremes(t *testing.T) {
	pop := ensemble(10, 70)
	nu := 0.4 * pop.TotalUnconstrainedPerCapita()
	s := NewSolver(nil)
	for _, strat := range []Strategy{{Kappa: 0, C: 0.3}, {Kappa: 1, C: 0.3}} {
		a := s.Trivial(strat, nu, pop)
		b := s.Competitive(strat, nu, pop)
		for i := range pop {
			if a.InPremium[i] != b.InPremium[i] {
				t.Fatalf("strategy %v: trivial and competitive disagree at CP %d", strat, i)
			}
		}
		if math.Abs(a.Psi()-b.Psi()) > 1e-9*math.Max(a.Psi(), 1) {
			t.Fatalf("strategy %v: Ψ differs", strat)
		}
	}
}

// opaqueMaxMin is max-min behind a type the kernels do not recognize, so
// every workspace of a solver takes the per-CP RateAt path of a
// user-supplied mechanism. It holds MaxMin in a named field rather than
// embedding it, which would promote MaxMin's unexported flattening.
type opaqueMaxMin struct{ inner alloc.MaxMin }

func (o opaqueMaxMin) RateAt(level float64, cp *traffic.CP) float64 {
	return o.inner.RateAt(level, cp)
}
func (o opaqueMaxMin) LevelHi(pop traffic.Population) float64 { return o.inner.LevelHi(pop) }
func (opaqueMaxMin) Name() string                             { return "opaque-maxmin" }

// TestSolverGenericMechanism plays class games under a mechanism the
// kernels cannot flatten: every game must converge with no CP wanting to
// switch at the band it accepted, and each class's rate equilibrium must
// match the reference Solve on that class.
func TestSolverGenericMechanism(t *testing.T) {
	pop := ensemble(6, 60)
	sat := pop.TotalUnconstrainedPerCapita()
	mech := opaqueMaxMin{}
	s := NewSolver(mech)
	for _, st := range []Strategy{{Kappa: 0, C: 0.3}, {Kappa: 0.5, C: 0.3}, {Kappa: 1, C: 0.4}} {
		for _, frac := range []float64{0.3, 0.8, 1.5} {
			nu := frac * sat
			eq := s.Competitive(st, nu, pop)
			if !eq.Converged {
				t.Fatalf("κ=%v, ν=%v·sat: not converged", st.Kappa, frac)
			}
			if v := s.VerifyCompetitive(eq, 0); v != 0 {
				t.Fatalf("κ=%v, ν=%v·sat: %d violations at ε=%v", st.Kappa, frac, v, eq.EpsUsed)
			}
			for _, class := range []struct {
				res *alloc.Result
				nu  float64
			}{{eq.Ordinary, (1 - st.Kappa) * nu}, {eq.Premium, st.Kappa * nu}} {
				ref := alloc.Solve(mech, class.nu, class.res.Pop)
				if d := math.Abs(class.res.Level - ref.Level); d > 1e-9*math.Max(ref.Level, 1) {
					t.Fatalf("κ=%v, ν=%v·sat: class level %v, reference %v", st.Kappa, frac, class.res.Level, ref.Level)
				}
				for i := range ref.Theta {
					if d := math.Abs(class.res.Theta[i] - ref.Theta[i]); d > 1e-9*math.Max(ref.Pop[i].ThetaHat, 1) {
						t.Fatalf("κ=%v, ν=%v·sat: θ_%d = %v, reference %v", st.Kappa, frac, i, class.res.Theta[i], ref.Theta[i])
					}
				}
			}
		}
	}
}
