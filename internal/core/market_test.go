package core

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"github.com/netecon-sim/publicoption/internal/numeric"
	"github.com/netecon-sim/publicoption/internal/traffic"
)

func TestDuopolySymmetricSplit(t *testing.T) {
	// Two identical neutral ISPs must split the market evenly (below
	// saturation, where Φ is strictly increasing and the split unique).
	pop := ensemble(51, 80)
	sat := pop.TotalUnconstrainedPerCapita()
	mk := NewMarket(nil, pop, 0.5*sat)
	out := mk.SolveDuopoly(
		ISP{Name: "a", Gamma: 0.5, Strategy: PublicOption},
		ISP{Name: "b", Gamma: 0.5, Strategy: PublicOption},
	)
	if math.Abs(out.Shares[0]-0.5) > 1e-6 {
		t.Fatalf("symmetric duopoly shares = %v", out.Shares)
	}
	// Equal surpluses at the equilibrium.
	if math.Abs(out.Eqs[0].Phi()-out.Eqs[1].Phi()) > 1e-6*math.Max(out.Phi, 1) {
		t.Fatalf("Φ not equalized: %v vs %v", out.Eqs[0].Phi(), out.Eqs[1].Phi())
	}
}

func TestDuopolyShareTracksCapacity(t *testing.T) {
	// With identical strategies, market share is proportional to capacity
	// (the duopoly instance of Lemma 4).
	pop := ensemble(52, 80)
	sat := pop.TotalUnconstrainedPerCapita()
	mk := NewMarket(nil, pop, 0.4*sat)
	out := mk.SolveDuopoly(
		ISP{Name: "big", Gamma: 0.7, Strategy: PublicOption},
		ISP{Name: "small", Gamma: 0.3, Strategy: PublicOption},
	)
	if math.Abs(out.Shares[0]-0.7) > 1e-6 || math.Abs(out.Shares[1]-0.3) > 1e-6 {
		t.Fatalf("shares = %v, want capacity proportions (0.7, 0.3)", out.Shares)
	}
}

func TestDuopolyUnaffordablePriceLosesMarket(t *testing.T) {
	// The paper's c_I = 1 corner (Figure 7): with κ_I = 1 and a price no CP
	// can pay, ISP I's surplus is 0 and all consumers move to the Public
	// Option.
	pop := ensemble(53, 80)
	sat := pop.TotalUnconstrainedPerCapita()
	mk := NewMarket(nil, pop, 0.5*sat)
	out := mk.SolveDuopoly(
		ISP{Name: "greedy", Gamma: 0.5, Strategy: Strategy{Kappa: 1, C: 1.01}},
		ISP{Name: "public", Gamma: 0.5, Strategy: PublicOption},
	)
	if out.Shares[0] != 0 || out.Shares[1] != 1 {
		t.Fatalf("shares = %v, want (0, 1)", out.Shares)
	}
	if out.Phi <= 0 {
		t.Fatal("public option must still deliver positive surplus")
	}
}

func TestDuopolyAgainstPublicOptionModeratePrice(t *testing.T) {
	// A moderately priced differentiated ISP coexists with the Public
	// Option; its share stays close to one half (paper: "slightly over 50%"
	// under scarcity, at most ~50% when abundant).
	pop := ensemble(54, 100)
	sat := pop.TotalUnconstrainedPerCapita()
	mk := NewMarket(nil, pop, 0.3*sat)
	out := mk.SolveDuopoly(
		ISP{Name: "strategic", Gamma: 0.5, Strategy: Strategy{Kappa: 1, C: 0.2}},
		ISP{Name: "public", Gamma: 0.5, Strategy: PublicOption},
	)
	m := out.Shares[0]
	if m < 0.2 || m > 0.8 {
		t.Fatalf("strategic ISP share = %v, expected interior equilibrium", m)
	}
	// Surpluses equalized (both ISPs active).
	phiA, phiB := out.Eqs[0].Phi(), out.Eqs[1].Phi()
	if math.Abs(phiA-phiB) > 1e-4*math.Max(phiA, 1) {
		t.Fatalf("Φ not equalized: %v vs %v", phiA, phiB)
	}
}

func TestTheorem5PublicOptionAlignsIncentives(t *testing.T) {
	// Against a Public Option, the strategy maximizing ISP I's market share
	// also (near-)maximizes consumer surplus: argmax_m and argmax_Φ agree
	// up to the class-game discontinuity ε.
	pop := ensemble(55, 80)
	sat := pop.TotalUnconstrainedPerCapita()
	mk := NewMarket(nil, pop, 0.35*sat)
	public := ISP{Name: "public", Gamma: 0.5, Strategy: PublicOption}
	grid := StrategyGrid{
		Kappas: []float64{0, 0.5, 1},
		Cs:     numeric.Linspace(0, 1, 11),
	}
	var bestM, phiAtBestM float64
	bestM = math.Inf(-1)
	var bestPhi float64
	for _, s := range grid.Strategies() {
		out := mk.SolveDuopoly(ISP{Name: "i", Gamma: 0.5, Strategy: s}, public)
		if out.Shares[0] > bestM {
			bestM, phiAtBestM = out.Shares[0], out.Phi
		}
		if out.Phi > bestPhi {
			bestPhi = out.Phi
		}
	}
	// Theorem 5: Φ at the market-share maximizer equals the maximum Φ (up
	// to the numerical ε of the class game and grid resolution).
	if phiAtBestM < bestPhi*(1-0.02) {
		t.Errorf("Φ at share-maximizing strategy = %v, max Φ = %v: misaligned beyond ε", phiAtBestM, bestPhi)
	}
}

func TestLemma4HomogeneousStrategiesProportionalShares(t *testing.T) {
	pop := ensemble(57, 60)
	sat := pop.TotalUnconstrainedPerCapita()
	mk := NewMarket(nil, pop, 0.4*sat)
	s := Strategy{Kappa: 0.5, C: 0.3}
	isps := []ISP{
		{Name: "x", Gamma: 0.5, Strategy: s},
		{Name: "y", Gamma: 0.3, Strategy: s},
		{Name: "z", Gamma: 0.2, Strategy: s},
	}
	out := mk.Solve(isps)
	for k, isp := range isps {
		if out.Shares[k] != isp.Gamma {
			t.Errorf("ISP %s share %v, want exactly γ=%v (Lemma 4)", isp.Name, out.Shares[k], isp.Gamma)
		}
	}
}

func TestSolveSingleISP(t *testing.T) {
	pop := ensemble(58, 40)
	mk := NewMarket(nil, pop, 5)
	out := mk.Solve([]ISP{{Name: "only", Gamma: 1, Strategy: PublicOption}})
	if out.Shares[0] != 1 {
		t.Fatalf("single ISP share = %v", out.Shares[0])
	}
}

func TestMarketPanics(t *testing.T) {
	pop := ensemble(59, 10)
	mk := NewMarket(nil, pop, 5)
	cases := []struct {
		name string
		f    func()
	}{
		{"duplicate-names", func() {
			mk.SolveDuopoly(ISP{Name: "a", Gamma: 0.5, Strategy: PublicOption}, ISP{Name: "a", Gamma: 0.5, Strategy: PublicOption})
		}},
		{"bad-gamma-sum", func() {
			mk.SolveDuopoly(ISP{Name: "a", Gamma: 0.5, Strategy: PublicOption}, ISP{Name: "b", Gamma: 0.6, Strategy: PublicOption})
		}},
		{"empty-market", func() { mk.Solve(nil) }},
		{"over-cap", func() {
			isps := make([]ISP, MaxISPs+1)
			for k := range isps {
				isps[k] = ISP{Name: string(rune('a' + k)), Gamma: 1 / float64(len(isps)), Strategy: PublicOption}
			}
			mk.Solve(isps)
		}},
		{"invalid-strategy", func() {
			mk.SolveDuopoly(ISP{Name: "a", Gamma: 0.5, Strategy: Strategy{Kappa: 2}}, ISP{Name: "b", Gamma: 0.5, Strategy: PublicOption})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			tc.f()
		})
	}
}

func TestMarketOutcomeAccessors(t *testing.T) {
	pop := ensemble(60, 30)
	mk := NewMarket(nil, pop, 3)
	out := mk.SolveDuopoly(
		ISP{Name: "a", Gamma: 0.5, Strategy: PublicOption},
		ISP{Name: "b", Gamma: 0.5, Strategy: PublicOption},
	)
	if out.String() == "" {
		t.Fatal("String() empty")
	}
}

// randomMarket draws a seeded market of k ISPs: a 40–80-CP ensemble, ν̄
// between 0.2 and 0.8 of saturation, capacity shares from 0.5–1.5 weights,
// and each ISP playing the Public Option, an interior κ or κ = 1.
func randomMarket(seed uint64, k int) (traffic.Population, float64, []ISP) {
	rng := numeric.NewRNG(seed)
	pop := ensemble(seed, 40+rng.Intn(41))
	nuBar := rng.Uniform(0.2, 0.8) * pop.TotalUnconstrainedPerCapita()
	isps := make([]ISP, k)
	var total float64
	for i := range isps {
		isps[i].Name = string(rune('a' + i))
		isps[i].Gamma = rng.Uniform(0.5, 1.5)
		total += isps[i].Gamma
		switch rng.Intn(3) {
		case 0:
			isps[i].Strategy = PublicOption
		case 1:
			isps[i].Strategy = Strategy{Kappa: rng.Uniform(0.2, 0.8), C: rng.Uniform(0.1, 0.6)}
		default:
			isps[i].Strategy = Strategy{Kappa: 1, C: rng.Uniform(0.1, 0.6)}
		}
	}
	for i := range isps {
		isps[i].Gamma /= total
	}
	return pop, nuBar, isps
}

// coldGap is the relative Assumption-5 gap of a reported outcome, checked
// against cold class games on a fresh solver: the spread of Φ over the ISPs
// holding consumers, or how far an empty ISP's Φ at a vanishing share
// exceeds the lowest of theirs, over max(Φ, 1).
func coldGap(pop traffic.Population, nuBar float64, out *MarketOutcome) float64 {
	mk := NewMarket(nil, pop, nuBar)
	lo, hi, empty := math.Inf(1), math.Inf(-1), math.Inf(-1)
	for k, isp := range out.ISPs {
		phi := NewSolver(nil).Competitive(isp.Strategy, mk.nuAtShare(isp, out.Shares[k]), pop).Phi()
		if out.Shares[k] > 0 {
			lo, hi = math.Min(lo, phi), math.Max(hi, phi)
		} else {
			empty = math.Max(empty, phi)
		}
	}
	return math.Max(hi-lo, empty-lo) / math.Max(hi, 1)
}

// TestSolveIsAnAssumption5Equilibrium is the property every reported share
// vector must have: consumers have migrated until Φ is equal at every ISP
// holding them. Over 30 seeded markets per K the median cold gap is at
// most 1e-6. A few markets may sit on a class jump, where no share is an
// equilibrium of the cold games and the search ends on the jump; the
// median does not see them. (The 96-point share-curve inversion this
// search replaced had median gaps above 1e-3 at K = 3 and K = 4.) The
// K = 4 markets take about a minute of CPU; under the race detector,
// which has no concurrency to check here, they would take ten.
func TestSolveIsAnAssumption5Equilibrium(t *testing.T) {
	for k := 2; k <= MaxISPs; k++ {
		if k == 4 && raceEnabled {
			t.Log("K=4 skipped under the race detector")
			continue
		}
		gaps := make([]float64, 30)
		t.Run(fmt.Sprintf("K=%d", k), func(t *testing.T) {
			for i := range gaps {
				t.Run(fmt.Sprint(i), func(t *testing.T) {
					t.Parallel()
					pop, nuBar, isps := randomMarket(uint64(1000*k+i), k)
					mk := NewMarket(nil, pop, nuBar)
					mk.MigrationTol = 1e-7
					out := mk.Solve(isps)
					var sum float64
					for _, m := range out.Shares {
						sum += m
					}
					if math.Abs(sum-1) > 1e-9 {
						t.Errorf("shares %v sum to %v", out.Shares, sum)
					}
					gaps[i] = coldGap(pop, nuBar, out)
				})
			}
		})
		sorted := slices.Clone(gaps)
		slices.Sort(sorted)
		median := (sorted[14] + sorted[15]) / 2
		t.Logf("K=%d: median cold gap %.3g, worst %.3g, %d of 30 above 1e-3", k, median, sorted[29],
			len(sorted)-sort.SearchFloat64s(sorted, 1e-3))
		if median > 1e-6 {
			t.Errorf("K=%d: median cold gap %.3g over 30 markets, want ≤ 1e-6 (gaps %.3g)", k, median, gaps)
		}
	}
}

// TestSolveGivesATinySubMarketToItsBestSide pins a three-ISP market
// whose rest, {b, c}, a bisection evaluates at masses below 4·minShare.
// Bisecting such a mass gave it all to c, the rest's last ISP, so the rest
// seemed worth c's saturated Φ of 1.17 while b alone offered 6.82; the
// outer clamp then gave a every consumer at Φ = 3.31, a cold gap of 1.06.
// The equilibrium lies near m_a = 0.112.
func TestSolveGivesATinySubMarketToItsBestSide(t *testing.T) {
	pop := ensemble(3013, 44)
	nuBar := 0.546 * pop.TotalUnconstrainedPerCapita()
	isps := []ISP{
		{Name: "a", Gamma: 0.262, Strategy: Strategy{Kappa: 1, C: 0.76}},
		{Name: "b", Gamma: 0.262, Strategy: Strategy{Kappa: 1, C: 0.628}},
		{Name: "c", Gamma: 0.476, Strategy: Strategy{Kappa: 1, C: 0.89}},
	}
	mk := NewMarket(nil, pop, nuBar)
	mk.MigrationTol = 1e-7
	out := mk.Solve(isps)
	if gap := coldGap(pop, nuBar, out); gap > 1e-6 {
		t.Fatalf("%v: cold gap %.3g, want ≤ 1e-6", out, gap)
	}
	if m := out.Shares[0]; m < 0.1 || m > 0.125 {
		t.Errorf("%v: a holds %v, want about 0.112", out, m)
	}

	// The secant search above never values the rest at so small a mass,
	// so value it there directly: all of it goes to b.
	rest := isps[1:]
	for _, s := range []float64{0, minShare / 2, minShare, 2 * minShare, 3 * minShare, 4 * minShare} {
		sub := &MarketOutcome{Shares: make([]float64, 2), Eqs: make([]*ClassEquilibrium, 2)}
		v := mk.equalize(rest, s, 0.738, surplus, sub, 0)
		vb := mk.equalize(rest[:1], s, 0.262, surplus, nil, 0)
		if math.Abs(v-vb) > 1e-9*vb || sub.Shares[0] != s || sub.Shares[1] != 0 {
			t.Errorf("rest at mass %g: value %v, shares %v; want b's %v with all of it", s, v, sub.Shares, vb)
		}
	}
}

// bisectReplay is Market.equalize with numeric.BisectDecreasing at every
// level: the search Market.split replaces with numeric.BisectDecreasingFrom
// at levels of κ = 0 and κ = 1 ISPs. It records each ISP's share in
// shares, indexed like isps, and returns the equalized level.
func bisectReplay(mk *Market, isps []ISP, s, gamma float64, value valueFunc, shares []float64) float64 {
	a := isps[0]
	if len(isps) == 1 {
		shares[0] = s
		return value(a, mk.eqAtShare(a, s))
	}
	rest := isps[1:]
	var restGamma float64
	for _, isp := range rest {
		restGamma += isp.Gamma
	}
	eval := func(sub []ISP, s, gamma float64) float64 {
		return bisectReplay(mk, sub, s, gamma, value, make([]float64, len(sub)))
	}
	m := s * a.Gamma / gamma
	vA, vR := eval(isps[:1], m, a.Gamma), eval(rest, s*restGamma/gamma, restGamma)
	switch gap := vA - vR; {
	case math.Abs(gap) <= 1e-9*math.Max(math.Max(vA, vR), 1):
	case s <= 4*minShare && gap > 0:
		m = s
	case s <= 4*minShare:
		m = 0
	default:
		m = numeric.BisectDecreasing(func(m float64) float64 {
			return eval(isps[:1], m, a.Gamma) - eval(rest, s-m, restGamma)
		}, minShare, s-minShare, mk.MigrationTol)
	}
	vA = bisectReplay(mk, isps[:1], m, a.Gamma, value, shares[:1])
	vR = bisectReplay(mk, rest, s-m, restGamma, value, shares[1:])
	switch {
	case m <= 2*minShare && m < s:
		shares[0] = 0
		for j := range shares[1:] {
			shares[1+j] = shares[1+j] / (s - m) * s
		}
		return vR
	case m >= s-2*minShare:
		shares[0] = s
		clear(shares[1:])
		return vA
	}
	return math.Max(vA, vR)
}

// partitionFixedMarket is randomMarket with every interior κ raised to 1,
// so no ISP's class partition moves with ν.
func partitionFixedMarket(seed uint64, k int) (traffic.Population, float64, []ISP) {
	pop, nuBar, isps := randomMarket(seed, k)
	for i := range isps {
		if !isps[i].Strategy.NoPremium() {
			isps[i].Strategy.Kappa = 1
		}
	}
	return pop, nuBar, isps
}

// TestPartitionFixedSearchIsBisection is the equivalence the secant
// migration search rests on. On seeded duopolies whose ISPs play κ = 0 or
// κ = 1, with and without rebates, at three tolerances, Solve's shares are
// a BisectDecreasing replay's bit for bit, and Φ agrees to 1e-11 (the
// final class games warm-start from different games). With three or four
// ISPs the outer gap is monotone only up to the inner searches' tolerance,
// so shares agree within 2·MigrationTol.
func TestPartitionFixedSearchIsBisection(t *testing.T) {
	var interior int // markets whose first ISP ends strictly inside (0, 1)
	check := func(t *testing.T, pop traffic.Population, nuBar, tol float64, isps []ISP, value valueFunc, exact bool) {
		t.Helper()
		mk := NewMarket(nil, pop, nuBar)
		mk.MigrationTol = tol
		out := mk.solve(new(MarketOutcome), isps, value)
		ref := NewMarket(nil, pop, nuBar)
		ref.MigrationTol = tol
		shares := make([]float64, len(isps))
		level := bisectReplay(ref, isps, 1, 1, value, shares)
		for k := range isps {
			if exact && out.Shares[k] != shares[k] || math.Abs(out.Shares[k]-shares[k]) > 2*tol {
				t.Errorf("%v: shares %v, bisection %v", isps, out.Shares, shares)
				break
			}
		}
		if exact && math.Abs(out.Phi-level) > 1e-11*math.Abs(level) {
			t.Errorf("%v: Φ %v, bisection %v", isps, out.Phi, level)
		}
		if out.Shares[0] > 0 && out.Shares[0] < 1 {
			interior++
		}
	}
	for _, tol := range []float64{1e-6, 1e-7, 1e-8} {
		t.Run(fmt.Sprintf("tol=%g", tol), func(t *testing.T) {
			for i := range 50 {
				pop, nuBar, isps := partitionFixedMarket(uint64(5000+i), 2)
				check(t, pop, nuBar, tol, isps, surplus, true)
			}
			for i := range 20 {
				pop, nuBar, isps := partitionFixedMarket(uint64(6000+i), 2)
				rng := numeric.NewRNG(uint64(6000 + i))
				sigma := []float64{rng.Uniform(0, 1), rng.Uniform(0, 1)}
				value := func(isp ISP, eq *ClassEquilibrium) float64 {
					k := 1
					if isp.Name == isps[0].Name {
						k = 0
					}
					return eq.Phi() + sigma[k]*eq.Psi()
				}
				check(t, pop, nuBar, tol, isps, value, true)
			}
		})
	}
	for _, k := range []int{3, 4} {
		t.Run(fmt.Sprintf("K=%d", k), func(t *testing.T) {
			for i := range 6 {
				pop, nuBar, isps := partitionFixedMarket(uint64(7000+100*k+i), k)
				check(t, pop, nuBar, 1e-7, isps, surplus, false)
			}
		})
	}
	t.Logf("%d of 222 markets split their first ISP's share", interior)
}

// TestSolveWorkBudget bounds the search's cost in kernel solves at
// MigrationTol 1e-7 on a 300-CP ensemble, at about 1.05× the measured
// work. Four ISPs with differing strategies nest three searches. A level
// holding an interior-κ ISP bisects, about 26 steps, and a level of κ = 0
// and κ = 1 ISPs takes about 6 secant steps, so the mixed market puts its
// interior-κ ISP first: its top level bisects over secant searches on the
// other three. (Bisecting every level, it took 76,447 solves, and 75,534
// with every ISP at κ = 0 or κ = 1; with its interior-κ ISP moved last,
// about 470,000.) Four ISPs playing one strategy stop at the plateau test
// of every level.
func TestSolveWorkBudget(t *testing.T) {
	pop := ensemble(63, 300)
	nuBar := 0.4 * pop.TotalUnconstrainedPerCapita()
	same := Strategy{Kappa: 0.5, C: 0.3}
	cases := []struct {
		name   string
		isps   []ISP
		budget uint64
	}{
		{"mixed", []ISP{
			{Name: "a", Gamma: 0.3, Strategy: Strategy{Kappa: 0.5, C: 0.3}},
			{Name: "b", Gamma: 0.3, Strategy: Strategy{Kappa: 1, C: 0.4}},
			{Name: "c", Gamma: 0.2, Strategy: PublicOption},
			{Name: "d", Gamma: 0.2, Strategy: Strategy{Kappa: 1, C: 0.2}},
		}, 7_300},
		{"partition-fixed", []ISP{
			{Name: "a", Gamma: 0.3, Strategy: Strategy{Kappa: 1, C: 0.3}},
			{Name: "b", Gamma: 0.3, Strategy: Strategy{Kappa: 1, C: 0.4}},
			{Name: "c", Gamma: 0.2, Strategy: PublicOption},
			{Name: "d", Gamma: 0.2, Strategy: Strategy{Kappa: 1, C: 0.2}},
		}, 1_850},
		{"one-strategy", []ISP{
			{Name: "a", Gamma: 0.4, Strategy: same},
			{Name: "b", Gamma: 0.3, Strategy: same},
			{Name: "c", Gamma: 0.2, Strategy: same},
			{Name: "d", Gamma: 0.1, Strategy: same},
		}, 1_000},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mk := NewMarket(nil, pop, nuBar)
			mk.MigrationTol = 1e-7
			mk.Solve(tc.isps)
			solves := mk.Solver.Stats().Solves
			t.Logf("%d kernel solves", solves)
			if solves > tc.budget {
				t.Errorf("%d kernel solves, budget %d", solves, tc.budget)
			}
		})
	}
}
