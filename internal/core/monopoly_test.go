package core

import (
	"math"
	"testing"

	"github.com/netecon-sim/publicoption/internal/numeric"
)

func TestTheorem4KappaOneDominates(t *testing.T) {
	pop := ensemble(41, 100)
	sat := pop.TotalUnconstrainedPerCapita()
	m := NewMonopoly(nil)
	kappas := []float64{0.1, 0.3, 0.5, 0.7, 0.9}
	prices := []float64{0.1, 0.3, 0.5, 0.7}
	for _, frac := range []float64{0.15, 0.5, 1.1} {
		worst := m.CheckTheorem4(kappas, prices, frac*sat, pop)
		// Allow solver tolerance: a violation must exceed a sliver of the
		// revenue scale to count.
		if worst > 1e-6*sat {
			t.Errorf("ν=%.3g·sat: Theorem 4 violated by %v (κ<1 beat κ=1)", frac, worst)
		}
	}
}

func TestOptimalStrategyPicksFullPremium(t *testing.T) {
	// Theorem 4: an optimal strategy exists at κ = 1. The optimizer may
	// return any revenue-equivalent strategy, so compare revenues, not κ.
	pop := ensemble(42, 100)
	sat := pop.TotalUnconstrainedPerCapita()
	m := NewMonopoly(nil)
	nu := 0.3 * sat
	sBest, eqBest := m.OptimalStrategy(1, nu, pop, 5, 20)
	_, eqK1 := m.OptimalPrice(1, 1, nu, pop, 60)
	if eqBest.Psi() < eqK1.Psi()*(1-1e-6) {
		t.Errorf("full search found Ψ=%v < κ=1 search Ψ=%v (s=%v)", eqBest.Psi(), eqK1.Psi(), sBest)
	}
}

func TestRevenueCurveRegimes(t *testing.T) {
	// The three pricing regimes of Figure 4 under κ=1.
	pop := ensemble(43, 150)
	sat := pop.TotalUnconstrainedPerCapita()
	m := NewMonopoly(nil)
	nu := 0.2 * sat // scarce capacity
	grid := numeric.Linspace(0, 1, 51)
	psi := make([]float64, len(grid))
	phi := make([]float64, len(grid))
	m.ResetWarm()
	for i, c := range grid {
		eq := m.Outcome(Strategy{Kappa: 1, C: c}, nu, pop)
		psi[i], phi[i] = eq.Psi(), eq.Phi()
	}

	// Regime 1: Ψ = c·ν on the low-price linear segment.
	for i, c := range grid[:5] {
		if math.Abs(psi[i]-c*nu) > 1e-6*math.Max(c*nu, 1) {
			t.Errorf("Ψ(%g) = %v, want c·ν = %v (linear regime)", c, psi[i], c*nu)
		}
	}
	// Regime 2: at c = 1 no CP can afford the class (v < 1 a.s.).
	if last := psi[len(psi)-1]; last > 1e-9 {
		t.Errorf("Ψ(1) = %v, want 0", last)
	}
	// Φ collapses alongside: consumer surplus at c=1 is 0 under κ=1.
	if last := phi[len(phi)-1]; last > 1e-9 {
		t.Errorf("Φ(1) = %v, want 0", last)
	}
	// Revenue has an interior maximum (rises from 0, returns to 0).
	peak := numeric.ArgMax(psi)
	if peak == 0 || peak == len(psi)-1 {
		t.Errorf("revenue peak at boundary index %d", peak)
	}
}

func TestMonopolyMisalignmentWhenAbundant(t *testing.T) {
	// §III-E regime 3: with abundant capacity, the revenue-optimal price
	// hurts consumer surplus relative to cheap access.
	pop := ensemble(44, 150)
	sat := pop.TotalUnconstrainedPerCapita()
	m := NewMonopoly(nil)
	nu := 0.8 * sat
	cBest, eqBest := m.OptimalPrice(1, 1, nu, pop, 80)
	m.ResetWarm()
	eqCheap := m.Outcome(Strategy{Kappa: 1, C: 0.02}, nu, pop)
	if cBest < 0.1 {
		t.Skipf("optimal price %v too low to exhibit misalignment on this draw", cBest)
	}
	if eqBest.Phi() >= eqCheap.Phi() {
		t.Errorf("abundant capacity: Φ at optimal price (%v) should fall below Φ at near-free access (%v)",
			eqBest.Phi(), eqCheap.Phi())
	}
}

func TestCapacityCurveRegimes(t *testing.T) {
	// Figure 5's shape for a fixed (κ, c): Ψ rises (premium congested),
	// peaks, then falls as CPs defect to the ordinary class; Φ keeps
	// growing with capacity overall.
	pop := ensemble(45, 120)
	sat := pop.TotalUnconstrainedPerCapita()
	m := NewMonopoly(nil)
	grid := numeric.Linspace(0.02*sat, 2*sat, 40)
	psi := make([]float64, len(grid))
	phi := make([]float64, len(grid))
	m.ResetWarm()
	for i, nu := range grid {
		eq := m.Outcome(Strategy{Kappa: 0.5, C: 0.5}, nu, pop)
		psi[i], phi[i] = eq.Psi(), eq.Phi()
	}

	peak := numeric.ArgMax(psi)
	if peak == 0 {
		t.Error("Ψ should rise initially with ν")
	}
	if last := psi[len(psi)-1]; last > psi[peak]*0.8 {
		t.Errorf("Ψ should decay well below its peak at abundant ν: %v vs peak %v", last, psi[peak])
	}
	// Φ ends near its saturation value.
	finalPhi := phi[len(phi)-1]
	wantPhi := 0.0
	for i := range pop {
		wantPhi += pop[i].Phi * pop[i].UnconstrainedPerCapitaRate()
	}
	if math.Abs(finalPhi-wantPhi) > 1e-6*wantPhi {
		t.Errorf("Φ at 2·sat = %v, want saturation %v", finalPhi, wantPhi)
	}
	// Φ broadly increases: its largest downward gap is small relative to
	// its range (the ε_s of Eq. 9 — "when |N| is large, ε is quite small").
	if gap := numeric.MaxDownwardGap(phi); gap > 0.15*wantPhi {
		t.Errorf("Φ(ν) has an implausibly large drop: %v of range %v", gap, wantPhi)
	}
}

func TestHigherKappaHigherRevenue(t *testing.T) {
	// Theorem 4's second claim, on the κ ladder at fixed c (checked in the
	// aggregate: revenue at κ' > κ should not be smaller beyond tolerance
	// when the premium set only grows — we check the monotone trend).
	pop := ensemble(46, 100)
	sat := pop.TotalUnconstrainedPerCapita()
	m := NewMonopoly(nil)
	nu := 0.25 * sat
	prev := -1.0
	for _, kappa := range []float64{0.2, 0.4, 0.6, 0.8, 1.0} {
		m.ResetWarm()
		psi := m.Outcome(Strategy{Kappa: kappa, C: 0.3}, nu, pop).Psi()
		if psi < prev-1e-6*sat {
			t.Errorf("revenue fell from %v to %v when κ rose to %v", prev, psi, kappa)
		}
		prev = psi
	}
}

func TestOptimalPriceWarmReset(t *testing.T) {
	// OptimalPrice must not leak warm-start state between calls: two
	// identical calls return identical answers.
	pop := ensemble(47, 80)
	nu := 0.3 * pop.TotalUnconstrainedPerCapita()
	m := NewMonopoly(nil)
	c1, eq1 := m.OptimalPrice(1, 1, nu, pop, 40)
	c2, eq2 := m.OptimalPrice(1, 1, nu, pop, 40)
	if c1 != c2 || eq1.Psi() != eq2.Psi() {
		t.Fatalf("OptimalPrice not deterministic: (%v,%v) vs (%v,%v)", c1, eq1.Psi(), c2, eq2.Psi())
	}
}
