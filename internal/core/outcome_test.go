package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/netecon-sim/publicoption/internal/alloc"
	"github.com/netecon-sim/publicoption/internal/traffic"
)

// firstISPs returns the first k of four ISPs, capacity shares renormalized
// to sum to 1. Only the first plays an interior κ, so each nested level
// below the outer one takes the secant search.
func firstISPs(k int) []ISP {
	all := []ISP{
		{Name: "a", Gamma: 0.3, Strategy: Strategy{Kappa: 0.5, C: 0.3}},
		{Name: "b", Gamma: 0.25, Strategy: Strategy{Kappa: 1, C: 0.4}},
		{Name: "po", Gamma: 0.25, Strategy: PublicOption},
		{Name: "d", Gamma: 0.2, Strategy: Strategy{Kappa: 1, C: 0.7}},
	}
	isps := slices.Clone(all[:k])
	var total float64
	for _, isp := range isps {
		total += isp.Gamma
	}
	for i := range isps {
		isps[i].Gamma /= total
	}
	return isps
}

// outcomeDiff names the first field in which two outcomes differ, bit for
// bit, or returns "" when they agree on the ISPs, ν̄, Φ, every share and
// every field of every class equilibrium.
func outcomeDiff(got, want *MarketOutcome) string {
	bits := math.Float64bits
	sameBits := func(a, b []float64) bool {
		return slices.EqualFunc(a, b, func(x, y float64) bool { return bits(x) == bits(y) })
	}
	samePop := func(a, b traffic.Population) bool {
		return slices.EqualFunc(a, b, func(x, y traffic.CP) bool {
			return x.Name == y.Name && bits(x.ThetaHat) == bits(y.ThetaHat) && bits(x.Alpha) == bits(y.Alpha)
		})
	}
	sameResult := func(a, b *alloc.Result) bool {
		return bits(a.Nu) == bits(b.Nu) && bits(a.Level) == bits(b.Level) && a.Constrained == b.Constrained &&
			sameBits(a.Theta, b.Theta) && samePop(a.Pop, b.Pop)
	}
	switch {
	case !slices.Equal(got.ISPs, want.ISPs):
		return fmt.Sprintf("ISPs %v, want %v", got.ISPs, want.ISPs)
	case bits(got.NuBar) != bits(want.NuBar):
		return fmt.Sprintf("ν̄ %v, want %v", got.NuBar, want.NuBar)
	case bits(got.Phi) != bits(want.Phi):
		return fmt.Sprintf("Φ %v, want %v", got.Phi, want.Phi)
	case !sameBits(got.Shares, want.Shares):
		return fmt.Sprintf("shares %v, want %v", got.Shares, want.Shares)
	case len(got.Eqs) != len(want.Eqs):
		return fmt.Sprintf("%d equilibria, want %d", len(got.Eqs), len(want.Eqs))
	}
	for k, g := range got.Eqs {
		w := want.Eqs[k]
		switch name := got.ISPs[k].Name; {
		case g.Strategy != w.Strategy || bits(g.Nu) != bits(w.Nu) || !samePop(g.Pop, w.Pop):
			return fmt.Sprintf("%s: game (%v, ν=%v, %d CPs), want (%v, ν=%v, %d CPs)", name, g.Strategy, g.Nu, len(g.Pop), w.Strategy, w.Nu, len(w.Pop))
		case !slices.Equal(g.InPremium, w.InPremium):
			return name + ": partition differs"
		case !sameBits(g.Theta, w.Theta):
			return name + ": θ differs"
		case !sameResult(g.Ordinary, w.Ordinary):
			return name + ": ordinary class differs"
		case !sameResult(g.Premium, w.Premium):
			return name + ": premium class differs"
		case g.Converged != w.Converged || g.Iterations != w.Iterations || bits(g.EpsUsed) != bits(w.EpsUsed):
			return fmt.Sprintf("%s: converged %t after %d at ε %v, want %t after %d at ε %v", name,
				g.Converged, g.Iterations, g.EpsUsed, w.Converged, w.Iterations, w.EpsUsed)
		}
	}
	return ""
}

// TestSolveIntoIsSolve: solving into a caller's outcome is the same
// computation as Solve, bit for bit, at every market size.
func TestSolveIntoIsSolve(t *testing.T) {
	pop := ensemble(31, 60)
	nuBar := 0.35 * pop.TotalUnconstrainedPerCapita()
	for k := 1; k <= MaxISPs; k++ {
		isps := firstISPs(k)
		want := NewMarket(nil, pop, nuBar).Solve(isps)
		got := NewMarket(nil, pop, nuBar).SolveInto(new(MarketOutcome), isps)
		if d := outcomeDiff(got, want); d != "" {
			t.Errorf("K=%d: SolveInto %s", k, d)
		}
	}
}

// TestSolveIntoReusedOutcomeCarriesNothingOver solves markets of different
// populations, capacities and sizes, growing and shrinking, into one
// outcome: each must be what Solve returns for that market alone.
func TestSolveIntoReusedOutcomeCarriesNothingOver(t *testing.T) {
	out := new(MarketOutcome)
	for i, c := range []struct {
		seed uint64
		n, k int
		frac float64
	}{
		{32, 80, 3, 0.3},
		{33, 50, 1, 0.6},
		{34, 70, 4, 0.25},
		{35, 40, 2, 0.5},
	} {
		pop := ensemble(c.seed, c.n)
		nuBar := c.frac * pop.TotalUnconstrainedPerCapita()
		isps := firstISPs(c.k)
		want := NewMarket(nil, pop, nuBar).Solve(isps)
		if d := outcomeDiff(NewMarket(nil, pop, nuBar).SolveInto(out, isps), want); d != "" {
			t.Errorf("market %d (K=%d, %d CPs) into a reused outcome: %s", i, c.k, c.n, d)
		}
	}

	// The rebate game into the same outcome.
	pop := ensemble(38, 60)
	nuBar := 0.3 * pop.TotalUnconstrainedPerCapita()
	duo := firstISPs(2)
	a, b := SubsidizedISP{ISP: duo[0], Sigma: 0.8}, SubsidizedISP{ISP: duo[1]}
	want := NewMarket(nil, pop, nuBar).SolveSubsidizedDuopoly(a, b)
	got := NewMarket(nil, pop, nuBar).SolveSubsidizedDuopolyInto(out, a, b)
	if math.Float64bits(got.GrossPhi) != math.Float64bits(want.GrossPhi) {
		t.Errorf("rebate duopoly into a reused outcome: gross Φ %v, want %v", got.GrossPhi, want.GrossPhi)
	}
	if d := outcomeDiff(out, &MarketOutcome{ISPs: duo, NuBar: nuBar, Shares: want.Shares, Eqs: want.Eqs, Phi: want.Value}); d != "" {
		t.Errorf("rebate duopoly into a reused outcome: %s", d)
	}
}

// TestBestResponseKeepsTheBestCandidate replays both best-response
// searches as fresh Solve calls over the grid on a second market: the
// strategy, the objective and the whole returned outcome must match.
func TestBestResponseKeepsTheBestCandidate(t *testing.T) {
	pop := ensemble(61, 60)
	nuBar := 0.35 * pop.TotalUnconstrainedPerCapita()
	isps := []ISP{
		{Name: "i", Gamma: 0.5, Strategy: Strategy{Kappa: 1, C: 0.9}},
		{Name: "j", Gamma: 0.5, Strategy: PublicOption},
	}
	for _, c := range []struct {
		name      string
		search    func(*Market) (Strategy, *MarketOutcome, float64)
		objective func(*MarketOutcome) float64
	}{
		{"share", func(mk *Market) (Strategy, *MarketOutcome, float64) { return mk.BestResponse(isps, 0, smallGrid()) },
			func(o *MarketOutcome) float64 { return o.Shares[0] }},
		{"surplus", func(mk *Market) (Strategy, *MarketOutcome, float64) {
			return mk.BestResponseForSurplus(isps, 0, smallGrid())
		}, func(o *MarketOutcome) float64 { return o.Phi }},
	} {
		ref := NewMarket(nil, pop, nuBar)
		var (
			wantS   Strategy
			wantOut *MarketOutcome
			wantV   = math.Inf(-1)
		)
		cand := slices.Clone(isps)
		for _, s := range smallGrid().Strategies() {
			cand[0].Strategy = s
			if o := ref.Solve(cand); c.objective(o) > wantV+1e-12 {
				wantS, wantOut, wantV = s, o, c.objective(o)
			}
		}
		s, out, v := c.search(NewMarket(nil, pop, nuBar))
		if s != wantS || math.Float64bits(v) != math.Float64bits(wantV) {
			t.Errorf("%s: best %v at %v, Solve over the grid %v at %v", c.name, s, v, wantS, wantV)
		}
		if d := outcomeDiff(out, wantOut); d != "" {
			t.Errorf("%s: best outcome %s", c.name, d)
		}
	}
}
