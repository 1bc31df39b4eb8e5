package core

import (
	"math"
	"slices"
	"testing"

	"github.com/netecon-sim/publicoption/internal/numeric"
	"github.com/netecon-sim/publicoption/internal/traffic"
)

// lockstep drives two solvers through the same sequence of class games:
// ret through CompetitiveFrom and scr through CompetitiveScratch, each
// threading its own per-key warm partitions. Every game must give both
// entries the same Φ, Ψ, partition and iteration count, bit for bit.
type lockstep struct {
	t            *testing.T
	mk           *Market // for its ν(m) map only; its solver stays idle
	ret, scr     *Solver
	warmR, warmS map[string][]bool
}

func newLockstep(t *testing.T, pop traffic.Population, nuBar float64) *lockstep {
	return &lockstep{
		t: t, mk: NewMarket(nil, pop, nuBar),
		ret: NewSolver(nil), scr: NewSolver(nil),
		warmR: map[string][]bool{}, warmS: map[string][]bool{},
	}
}

// game solves one class game on both solvers and returns the retained
// equilibrium.
func (l *lockstep) game(key string, st Strategy, nu float64) *ClassEquilibrium {
	l.t.Helper()
	r := l.ret.CompetitiveFrom(st, nu, l.mk.Pop, l.warmR[key])
	l.warmR[key] = append(l.warmR[key][:0], r.InPremium...)
	s := l.scr.CompetitiveScratch(st, nu, l.mk.Pop, l.warmS[key])
	l.warmS[key] = append(l.warmS[key][:0], s.InPremium...)
	if !sameEq(r, s) {
		l.t.Fatalf("%s at ν=%v: retained Φ=%v Ψ=%v iter=%d, scratch Φ=%v Ψ=%v iter=%d",
			key, nu, r.Phi(), r.Psi(), r.Iterations, s.Phi(), s.Psi(), s.Iterations)
	}
	return r
}

// share is the game Market.eqAtShare plays for isp at market share m.
func (l *lockstep) share(isp ISP, m float64) *ClassEquilibrium {
	l.t.Helper()
	return l.game(isp.Name, isp.Strategy, l.mk.nuAtShare(isp, m))
}

// sameEq reports whether two equilibria agree bit for bit on Φ, Ψ, the
// partition and the iteration count.
func sameEq(a, b *ClassEquilibrium) bool {
	return math.Float64bits(a.Phi()) == math.Float64bits(b.Phi()) &&
		math.Float64bits(a.Psi()) == math.Float64bits(b.Psi()) &&
		a.Iterations == b.Iterations && slices.Equal(a.InPremium, b.InPremium)
}

// lockstepMigration replays Market.migrate's game sequence (plateau test,
// bisection, final pair) through the lockstep and returns a's share and
// the final retained pair.
func lockstepMigration(l *lockstep, a, b ISP, value func(ISP, *ClassEquilibrium) float64) (float64, *ClassEquilibrium, *ClassEquilibrium) {
	gap := func(m float64) float64 {
		va := value(a, l.share(a, m))
		return va - value(b, l.share(b, 1-m))
	}
	m := a.Gamma
	vGA, vGB := value(a, l.share(a, a.Gamma)), value(b, l.share(b, b.Gamma))
	if math.Abs(vGA-vGB) > 1e-9*math.Max(math.Max(vGA, vGB), 1) {
		m = numeric.BisectDecreasing(gap, minShare, 1-minShare, l.mk.MigrationTol)
	}
	eqA := l.share(a, m)
	return m, eqA, l.share(b, 1-m)
}

func TestScratchMatchesRetainedDuopoly(t *testing.T) {
	pop := ensemble(21, 150)
	nuBar := 0.3 * pop.TotalUnconstrainedPerCapita()
	a := ISP{Name: "incumbent", Gamma: 0.5, Strategy: Strategy{Kappa: 0.5, C: 0.3}}
	b := ISP{Name: "po", Gamma: 0.5, Strategy: PublicOption}

	l := newLockstep(t, pop, nuBar)
	m, eqA, eqB := lockstepMigration(l, a, b, func(_ ISP, eq *ClassEquilibrium) float64 { return eq.Phi() })
	out := NewMarket(nil, pop, nuBar).SolveDuopoly(a, b)
	if out.Shares[0] != m || !sameEq(out.Eqs[0], eqA) || !sameEq(out.Eqs[1], eqB) {
		t.Fatalf("SolveDuopoly share %v, retained chain %v", out.Shares[0], m)
	}
}

func TestScratchMatchesRetainedRebateDuopoly(t *testing.T) {
	pop := ensemble(22, 150)
	nuBar := 0.3 * pop.TotalUnconstrainedPerCapita()
	a := SubsidizedISP{ISP: ISP{Name: "incumbent", Gamma: 0.6, Strategy: Strategy{Kappa: 0.7, C: 0.4}}, Sigma: 0.8}
	b := SubsidizedISP{ISP: ISP{Name: "po", Gamma: 0.4, Strategy: PublicOption}}

	l := newLockstep(t, pop, nuBar)
	m, eqA, eqB := lockstepMigration(l, a.ISP, b.ISP, func(isp ISP, eq *ClassEquilibrium) float64 {
		sigma := b.Sigma
		if isp.Name == a.Name {
			sigma = a.Sigma
		}
		return eq.Phi() + sigma*eq.Psi()
	})
	out := NewMarket(nil, pop, nuBar).SolveSubsidizedDuopoly(a, b)
	if out.Shares[0] != m || !sameEq(out.Eqs[0], eqA) || !sameEq(out.Eqs[1], eqB) {
		t.Fatalf("SolveSubsidizedDuopoly share %v, retained chain %v", out.Shares[0], m)
	}
}

func TestScratchMatchesRetainedMarket(t *testing.T) {
	pop := ensemble(23, 120)
	nuBar := 0.35 * pop.TotalUnconstrainedPerCapita()
	isps := []ISP{
		{Name: "a", Gamma: 0.4, Strategy: Strategy{Kappa: 0.6, C: 0.3}},
		{Name: "b", Gamma: 0.35, Strategy: Strategy{Kappa: 1, C: 0.5}},
		{Name: "po", Gamma: 0.25, Strategy: PublicOption},
	}
	// SolveMarket's games: every ISP's share curve, then the final
	// equilibrium of each ISP at its equilibrium share.
	l := newLockstep(t, pop, nuBar)
	for _, isp := range isps {
		for _, m := range shareGrid() {
			l.share(isp, m)
		}
	}
	out := NewMarket(nil, pop, nuBar).SolveMarket(isps)
	for k, isp := range isps {
		if eq := l.share(isp, math.Max(out.Shares[k], minShare)); !sameEq(out.Eqs[k], eq) {
			t.Fatalf("%s: SolveMarket equilibrium differs from the retained chain", isp.Name)
		}
	}
}

func TestScratchMatchesRetainedEpsilonGap(t *testing.T) {
	pop := ensemble(24, 120)
	sat := pop.TotalUnconstrainedPerCapita()
	grid := numeric.Linspace(0.05*sat, 1.2*sat, 40)
	st := Strategy{Kappa: 0.5, C: 0.5}

	l := newLockstep(t, pop, 1)
	ys := make([]float64, len(grid))
	for i, nu := range grid {
		ys[i] = l.game("eps", st, nu).Phi()
	}
	want := numeric.MaxDownwardGap(ys)
	if got := NewMarket(nil, pop, 1).EpsilonGapForStrategy(st, grid); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("EpsilonGapForStrategy = %v, retained chain %v", got, want)
	}
}

// TestScratchDoesNotAliasRetained pins the pooling contract from the
// retained side: a scratch game leaves an earlier CompetitiveFrom result
// untouched and shares no buffer with it.
func TestScratchDoesNotAliasRetained(t *testing.T) {
	pop := ensemble(25, 100)
	nu := 0.3 * pop.TotalUnconstrainedPerCapita()
	s := NewSolver(nil)
	kept := s.CompetitiveFrom(Strategy{Kappa: 0.5, C: 0.3}, nu, pop, nil)
	snap := kept.Clone()

	sc := s.CompetitiveScratch(Strategy{Kappa: 0.8, C: 0.6}, 0.6*nu, pop, nil)
	if slices.Equal(sc.InPremium, kept.InPremium) {
		t.Fatal("the two games should differ in partition; pick other strategies")
	}
	if !slices.Equal(kept.InPremium, snap.InPremium) || !slices.Equal(kept.Theta, snap.Theta) ||
		!slices.Equal(kept.Ordinary.Theta, snap.Ordinary.Theta) || !slices.Equal(kept.Premium.Theta, snap.Premium.Theta) ||
		len(kept.Ordinary.Pop) != len(snap.Ordinary.Pop) || len(kept.Premium.Pop) != len(snap.Premium.Pop) {
		t.Fatal("a scratch game changed a retained equilibrium")
	}
	shares := func(a, b []float64) bool { return len(a) > 0 && len(b) > 0 && &a[0] == &b[0] }
	if &kept.InPremium[0] == &sc.InPremium[0] || shares(kept.Theta, sc.Theta) ||
		kept.Ordinary == sc.Ordinary || kept.Premium == sc.Premium ||
		shares(kept.Ordinary.Theta, sc.Ordinary.Theta) || shares(kept.Premium.Theta, sc.Premium.Theta) {
		t.Fatal("a retained equilibrium shares a buffer with the solver's pooled one")
	}
}

// TestCompetitiveScratchWarmAllocatesNothing is the class-game rung of the
// zero-allocation contract: once the solver's buffers have grown, a warm
// scratch game on the 1000-CP paper population allocates nothing.
func TestCompetitiveScratchWarmAllocatesNothing(t *testing.T) {
	s, strat, nu, pop := benchSetup()
	warm := slices.Clone(s.CompetitiveScratch(strat, nu, pop, nil).InPremium)
	s.CompetitiveScratch(strat, nu, pop, warm)
	if allocs := testing.AllocsPerRun(20, func() {
		s.CompetitiveScratch(strat, nu, pop, warm)
	}); allocs != 0 {
		t.Fatalf("warm scratch class game: %v allocs, want 0", allocs)
	}
}

// TestSolveDuopolyWarmAllocs bounds a warm duopoly on the paper
// population at interior κ, scarce and ample capacity: the migration
// search's gap evaluations run on the pooled equilibrium and every phase-2
// candidate is verified on the warm post-join kernel, so what remains is
// the outcome and its two retained equilibria. (When the later candidates
// of a phase-2 iteration were verified against sampled class curves, the
// κ = 0.2, ν = 0.2·sat duopoly made 1803 allocations.)
func TestSolveDuopolyWarmAllocs(t *testing.T) {
	pop := traffic.PaperPopulation(traffic.PhiCorrelated)
	sat := pop.TotalUnconstrainedPerCapita()
	b := ISP{Name: "po", Gamma: 0.5, Strategy: PublicOption}
	for _, kappa := range []float64{0.2, 0.5} {
		for _, frac := range []float64{0.2, 0.5} {
			mk := NewMarket(nil, pop, frac*sat)
			a := ISP{Name: "incumbent", Gamma: 0.5, Strategy: Strategy{Kappa: kappa, C: 0.3}}
			mk.SolveDuopoly(a, b)
			allocs := testing.AllocsPerRun(3, func() { mk.SolveDuopoly(a, b) })
			t.Logf("κ=%v ν=%v·sat: %v allocs", kappa, frac, allocs)
			if allocs > 24 {
				t.Errorf("warm SolveDuopoly at κ=%v, ν=%v·sat: %v allocs, want ≤ 24", kappa, frac, allocs)
			}
		}
	}
}
