package core

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/netecon-sim/publicoption/internal/econ"
	"github.com/netecon-sim/publicoption/internal/numeric"
)

// Property suite: structural invariants of the class game that must hold
// for every strategy, capacity and population — the backbone guarantees the
// experiments lean on.

func TestClassGameInvariantsQuick(t *testing.T) {
	rng := numeric.NewRNG(201)
	solver := NewSolver(nil)
	f := func() bool {
		pop := ensemble(rng.Uint64(), 5+rng.Intn(60))
		sat := pop.TotalUnconstrainedPerCapita()
		strat := Strategy{Kappa: rng.Float64(), C: rng.Uniform(0, 1.2)}
		nu := rng.Uniform(0, 1.5*sat)
		eq := solver.Competitive(strat, nu, pop)

		// 1. Carried traffic never exceeds capacity.
		carried := eq.Ordinary.Aggregate() + eq.Premium.Aggregate()
		if carried > nu*(1+1e-6)+1e-9 {
			t.Logf("over-capacity: carried %v > ν %v", carried, nu)
			return false
		}
		// 2. Revenue is the premium rate times the price.
		if psi := eq.Psi(); math.Abs(psi-strat.C*eq.Premium.Aggregate()) > 1e-9*math.Max(psi, 1) {
			t.Logf("Ψ inconsistency")
			return false
		}
		// 3. Surplus is bounded by the saturation value.
		maxPhi := 0.0
		for i := range pop {
			maxPhi += pop[i].Phi * pop[i].UnconstrainedPerCapitaRate()
		}
		if phi := eq.Phi(); phi < -1e-9 || phi > maxPhi*(1+1e-6) {
			t.Logf("Φ %v outside [0, %v]", phi, maxPhi)
			return false
		}
		// 4. Per-CP θ respects Axiom 1 inside each class.
		for i := range pop {
			if eq.Theta[i] < 0 || eq.Theta[i] > pop[i].ThetaHat*(1+1e-9) {
				t.Logf("θ_%d out of range", i)
				return false
			}
		}
		// 5. Premium members must afford the price (no CP pays more than it
		// earns — it could always take the free class; allow the
		// indifference band).
		for i := range pop {
			if !eq.InPremium[i] {
				continue
			}
			if u := econ.CPUtilityPerCapita(&eq.Pop[i], eq.Theta[i], strat.C); u < -eq.EpsUsed*utilityScale(&pop[i], strat.C)-1e-12 {
				t.Logf("CP %d in premium with negative utility %v", i, u)
				return false
			}
		}
		return true
	}
	if err := quick.Check(func() bool { return f() }, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestDuopolyInvariantsQuick(t *testing.T) {
	rng := numeric.NewRNG(203)
	f := func() bool {
		pop := ensemble(rng.Uint64(), 20+rng.Intn(40))
		sat := pop.TotalUnconstrainedPerCapita()
		mk := NewMarket(nil, pop, rng.Uniform(0.05, 1.5)*sat)
		mk.MigrationTol = 1e-6
		gammaA := rng.Uniform(0.2, 0.8)
		out := mk.SolveDuopoly(
			ISP{Name: "a", Gamma: gammaA, Strategy: Strategy{Kappa: rng.Float64(), C: rng.Float64()}},
			ISP{Name: "b", Gamma: 1 - gammaA, Strategy: PublicOption},
		)
		// Shares form a distribution.
		if math.Abs(out.Shares[0]+out.Shares[1]-1) > 1e-9 {
			return false
		}
		if out.Shares[0] < 0 || out.Shares[0] > 1 {
			return false
		}
		// The market surplus is within the achievable range.
		maxPhi := 0.0
		for i := range pop {
			maxPhi += pop[i].Phi * pop[i].UnconstrainedPerCapitaRate()
		}
		return out.Phi >= -1e-9 && out.Phi <= maxPhi*(1+1e-6)
	}
	if err := quick.Check(func() bool { return f() }, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Against a Public Option, interior equilibria equalize surplus: whenever
// both ISPs hold meaningful share, their per-subscriber Φ agree.
func TestDuopolyEqualizationQuick(t *testing.T) {
	rng := numeric.NewRNG(205)
	f := func() bool {
		pop := ensemble(rng.Uint64(), 30+rng.Intn(30))
		sat := pop.TotalUnconstrainedPerCapita()
		mk := NewMarket(nil, pop, rng.Uniform(0.2, 0.6)*sat)
		mk.MigrationTol = 1e-9
		out := mk.SolveDuopoly(
			ISP{Name: "a", Gamma: 0.5, Strategy: Strategy{Kappa: 1, C: rng.Uniform(0, 0.5)}},
			ISP{Name: "b", Gamma: 0.5, Strategy: PublicOption},
		)
		if out.Shares[0] < 0.05 || out.Shares[0] > 0.95 {
			return true // boundary equilibrium: equalization not required
		}
		phiA, phiB := out.Eqs[0].Phi(), out.Eqs[1].Phi()
		return math.Abs(phiA-phiB) <= 5e-3*math.Max(phiB, 1)
	}
	if err := quick.Check(func() bool { return f() }, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
