package core

import (
	"strings"
	"testing"
)

func TestCompareRegimesHeadlineRanking(t *testing.T) {
	// The paper's monopoly-market claim (§IV-A regulatory implications):
	// Public Option ≥ network neutrality ≥ unregulated, in consumer
	// surplus, when capacity is abundant enough for the monopolist's greed
	// to bite.
	pop := ensemble(71, 150)
	sat := pop.TotalUnconstrainedPerCapita()
	cfg := RegimeConfig{
		GridN: 15,
		POGrid: &StrategyGrid{
			Kappas: []float64{0, 0.5, 1},
			Cs:     []float64{0, 0.2, 0.4, 0.6, 0.8, 1},
		},
	}
	outcomes := CompareRegimes(nil, 0.8*sat, pop, cfg)
	if len(outcomes) != 5 {
		t.Fatalf("got %d outcomes, want 5", len(outcomes))
	}
	order := RegimeRanking(outcomes, 1e-9)
	if err := CheckHeadlineRanking(order); err != nil {
		for _, oc := range outcomes {
			t.Logf("%-14s Φ=%.2f Ψ=%.2f s=%v %s", oc.Regime, oc.Phi, oc.Psi, oc.Strategy, oc.Detail)
		}
		t.Fatal(err)
	}
}

func TestCompareRegimesCapsImproveOnUnregulated(t *testing.T) {
	// With abundant capacity, both partial remedies must help consumers
	// relative to the unregulated optimum (that is why the paper proposes
	// them).
	pop := ensemble(72, 120)
	sat := pop.TotalUnconstrainedPerCapita()
	cfg := RegimeConfig{KappaCap: 0.3, PriceCap: 0.15, GridN: 12,
		POGrid: &StrategyGrid{Kappas: []float64{0, 1}, Cs: []float64{0, 0.3, 0.6}}}
	byRegime := map[Regime]RegimeOutcome{}
	for _, oc := range CompareRegimes(nil, 0.8*sat, pop, cfg) {
		byRegime[oc.Regime] = oc
	}
	un := byRegime[RegimeUnregulated]
	for _, r := range []Regime{RegimeKappaCap, RegimePriceCap} {
		if byRegime[r].Phi < un.Phi-1e-9 {
			t.Errorf("%v Φ=%v below unregulated Φ=%v", r, byRegime[r].Phi, un.Phi)
		}
	}
	// And the caps must cost the monopolist revenue (they bind).
	if byRegime[RegimeKappaCap].Psi > un.Psi+1e-9 {
		t.Errorf("κ-cap increased monopoly revenue")
	}
}

func TestRegimeStringAndRanking(t *testing.T) {
	for _, r := range []Regime{RegimeUnregulated, RegimeKappaCap, RegimePriceCap, RegimeNeutral, RegimePublicOption} {
		if strings.Contains(r.String(), "Regime(") {
			t.Errorf("missing String for %d", int(r))
		}
	}
	outcomes := []RegimeOutcome{
		{Regime: RegimeUnregulated, Phi: 1},
		{Regime: RegimeNeutral, Phi: 3},
		{Regime: RegimePublicOption, Phi: 5},
	}
	order := RegimeRanking(outcomes, 0)
	if order[0] != RegimePublicOption || order[2] != RegimeUnregulated {
		t.Fatalf("ranking = %v", order)
	}
	if err := CheckHeadlineRanking(order); err != nil {
		t.Fatal(err)
	}
	// A broken ranking must be detected.
	bad := []Regime{RegimeUnregulated, RegimeNeutral, RegimePublicOption}
	if err := CheckHeadlineRanking(bad); err == nil {
		t.Fatal("inverted ranking accepted")
	}
	// Missing regimes must be detected.
	if err := CheckHeadlineRanking([]Regime{RegimeNeutral}); err == nil {
		t.Fatal("incomplete ranking accepted")
	}
}
