package core

import "testing"

func TestSubsidyZeroMatchesBaseline(t *testing.T) {
	// With σ = 0 the rebate game is the baseline migration game: the same
	// search on the same values, so on equally fresh markets the shares and
	// the equalized level agree bit for bit.
	pop := ensemble(81, 80)
	sat := pop.TotalUnconstrainedPerCapita()
	a := ISP{Name: "i", Gamma: 0.5, Strategy: Strategy{Kappa: 1, C: 0.3}}
	b := ISP{Name: "po", Gamma: 0.5, Strategy: PublicOption}
	base := NewMarket(nil, pop, 0.4*sat).SolveDuopoly(a, b)
	sub := NewMarket(nil, pop, 0.4*sat).SolveSubsidizedDuopoly(
		SubsidizedISP{ISP: a, Sigma: 0},
		SubsidizedISP{ISP: b, Sigma: 0},
	)
	for k := range base.Shares {
		if base.Shares[k] != sub.Shares[k] {
			t.Fatalf("σ=0 share %d: %v baseline, %v rebate game", k, base.Shares[k], sub.Shares[k])
		}
	}
	if base.Phi != sub.Value {
		t.Fatalf("σ=0 equalized level: Φ=%v baseline, Φ+σΨ=%v rebate game", base.Phi, sub.Value)
	}
}

func TestSubsidyBuysMarketShare(t *testing.T) {
	// §VI: rebating premium revenue must attract consumers relative to
	// pocketing it.
	pop := ensemble(82, 80)
	sat := pop.TotalUnconstrainedPerCapita()
	mk := NewMarket(nil, pop, 0.4*sat)
	a := ISP{Name: "i", Gamma: 0.5, Strategy: Strategy{Kappa: 1, C: 0.3}}
	b := ISP{Name: "po", Gamma: 0.5, Strategy: PublicOption}
	noRebate := mk.SolveSubsidizedDuopoly(
		SubsidizedISP{ISP: a, Sigma: 0}, SubsidizedISP{ISP: b, Sigma: 0})
	fullRebate := mk.SolveSubsidizedDuopoly(
		SubsidizedISP{ISP: a, Sigma: 1}, SubsidizedISP{ISP: b, Sigma: 0})
	if fullRebate.Shares[0] <= noRebate.Shares[0] {
		t.Fatalf("full rebate share %v not above no-rebate share %v",
			fullRebate.Shares[0], noRebate.Shares[0])
	}
}

func TestSubsidyCannotMaskGrossSurplusLoss(t *testing.T) {
	// A rebating incumbent with a consumer-hostile strategy gains share,
	// but the regulator's gross-Φ view must still see the damage relative
	// to the neutral benchmark.
	pop := ensemble(83, 80)
	sat := pop.TotalUnconstrainedPerCapita()
	nuBar := 0.4 * sat
	mk := NewMarket(nil, pop, nuBar)
	hostile := ISP{Name: "i", Gamma: 0.5, Strategy: Strategy{Kappa: 1, C: 0.85}}
	po := ISP{Name: "po", Gamma: 0.5, Strategy: PublicOption}
	out := mk.SolveSubsidizedDuopoly(
		SubsidizedISP{ISP: hostile, Sigma: 1}, SubsidizedISP{ISP: po, Sigma: 0})
	neutralPhi := NewSolver(nil).Competitive(PublicOption, nuBar, pop).Phi()
	if out.GrossPhi >= neutralPhi {
		t.Fatalf("gross Φ %v should fall below the neutral benchmark %v under a hostile rebater",
			out.GrossPhi, neutralPhi)
	}
}

func TestSubsidyValidation(t *testing.T) {
	pop := ensemble(84, 10)
	mk := NewMarket(nil, pop, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for σ > 1")
		}
	}()
	mk.SolveSubsidizedDuopoly(
		SubsidizedISP{ISP: ISP{Name: "a", Gamma: 0.5, Strategy: PublicOption}, Sigma: 1.5},
		SubsidizedISP{ISP: ISP{Name: "b", Gamma: 0.5, Strategy: PublicOption}, Sigma: 0},
	)
}
