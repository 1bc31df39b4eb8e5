package core

import (
	"math"
	"testing"

	"github.com/netecon-sim/publicoption/internal/numeric"
)

func smallGrid() StrategyGrid {
	return StrategyGrid{
		Kappas: []float64{0, 0.5, 1},
		Cs:     numeric.Linspace(0, 1, 6),
	}
}

func TestBestResponseImprovesShare(t *testing.T) {
	pop := ensemble(61, 60)
	sat := pop.TotalUnconstrainedPerCapita()
	mk := NewMarket(nil, pop, 0.35*sat)
	isps := []ISP{
		{Name: "i", Gamma: 0.5, Strategy: Strategy{Kappa: 1, C: 0.9}}, // bad start
		{Name: "j", Gamma: 0.5, Strategy: PublicOption},
	}
	start := mk.SolveDuopoly(isps[0], isps[1]).Shares[0]
	_, _, bestM := mk.BestResponse(isps, 0, smallGrid())
	if bestM < start-1e-9 {
		t.Fatalf("best response share %v worse than initial %v", bestM, start)
	}
	if bestM < 0.3 {
		t.Fatalf("best response against a public option should win a sizable share, got %v", bestM)
	}
}

func TestTheorem6ShareAndSurplusBestResponsesAligned(t *testing.T) {
	pop := ensemble(62, 60)
	sat := pop.TotalUnconstrainedPerCapita()
	mk := NewMarket(nil, pop, 0.35*sat)
	isps := []ISP{
		{Name: "i", Gamma: 0.5, Strategy: PublicOption},
		{Name: "j", Gamma: 0.5, Strategy: Strategy{Kappa: 0.5, C: 0.4}},
	}
	grid := smallGrid()
	_, outM, _ := mk.BestResponse(isps, 0, grid)
	_, outPhi, bestPhi := mk.BestResponseForSurplus(isps, 0, grid)
	delta := mk.DeltaGap(isps, 0, grid)

	// Theorem 6 (second half): the surplus-maximizing strategy loses at
	// most δ of market share against the share-maximizing one.
	if outPhi.Shares[0] < outM.Shares[0]-delta-1e-6 {
		t.Errorf("surplus BR share %v < share BR %v − δ=%v", outPhi.Shares[0], outM.Shares[0], delta)
	}
	// Theorem 6 (first half): the share-maximizing strategy delivers within
	// ε of the maximum surplus. ε is the competitor's curve discontinuity;
	// we bound it empirically by the observed Φ spread tolerance.
	if outM.Phi < bestPhi-0.05*math.Max(bestPhi, 1) {
		t.Errorf("share BR surplus %v far below max surplus %v", outM.Phi, bestPhi)
	}
}

func TestDeltaGapNonNegative(t *testing.T) {
	pop := ensemble(64, 40)
	sat := pop.TotalUnconstrainedPerCapita()
	mk := NewMarket(nil, pop, 0.3*sat)
	isps := []ISP{
		{Name: "i", Gamma: 0.5, Strategy: PublicOption},
		{Name: "j", Gamma: 0.5, Strategy: PublicOption},
	}
	if d := mk.DeltaGap(isps, 0, smallGrid()); d < 0 || d > 1 {
		t.Fatalf("δ = %v outside [0,1]", d)
	}
}

func TestEpsilonGapForStrategy(t *testing.T) {
	pop := ensemble(65, 60)
	sat := pop.TotalUnconstrainedPerCapita()
	mk := NewMarket(nil, pop, 0.3*sat)
	grid := numeric.Linspace(0.05*sat, 1.5*sat, 40)
	// Neutral strategy: ε = 0 (Theorem 2).
	if eps := mk.EpsilonGapForStrategy(PublicOption, grid); eps > 1e-9 {
		t.Errorf("neutral ε = %v, want 0", eps)
	}
	// Differentiated strategy: ε exists but stays small for large N
	// (§III-E: "when |N| is large, ε is quite small").
	eps := mk.EpsilonGapForStrategy(Strategy{Kappa: 0.5, C: 0.5}, grid)
	maxPhi := 0.0
	for i := range pop {
		maxPhi += pop[i].Phi * pop[i].UnconstrainedPerCapitaRate()
	}
	if eps < 0 || eps > 0.2*maxPhi {
		t.Errorf("differentiated ε = %v outside plausible range [0, %v]", eps, 0.2*maxPhi)
	}
}

func TestDefaultStrategyGrid(t *testing.T) {
	g := DefaultStrategyGrid()
	ss := g.Strategies()
	if len(ss) != len(g.Kappas)*len(g.Cs) {
		t.Fatalf("grid size %d, want %d", len(ss), len(g.Kappas)*len(g.Cs))
	}
	for _, s := range ss {
		if err := s.Validate(); err != nil {
			t.Fatalf("grid produced invalid strategy: %v", err)
		}
	}
}
