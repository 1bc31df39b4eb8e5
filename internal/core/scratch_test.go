package core

import (
	"math"
	"runtime"
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

// lockstepMigration replays Market.equalize's game sequence (plateau
// test, Market.split's search, final evaluations, each recursing on the
// rest) through the lockstep. It returns the equalized level and records
// each ISP's share and final retained equilibrium in shares and eqs,
// indexed like isps.
func lockstepMigration(l *lockstep, isps []ISP, s, gamma float64, value valueFunc, shares []float64, eqs []*ClassEquilibrium) float64 {
	a := isps[0]
	if len(isps) == 1 {
		eq := l.share(a, s)
		shares[0], eqs[0] = s, eq
		return value(a, eq)
	}
	rest := isps[1:]
	var restGamma float64
	for _, isp := range rest {
		restGamma += isp.Gamma
	}
	eval := func(sub []ISP, s, gamma float64) float64 {
		return lockstepMigration(l, sub, s, gamma, value, make([]float64, len(sub)), make([]*ClassEquilibrium, len(sub)))
	}
	m := s * a.Gamma / gamma
	vA, vR := eval(isps[:1], m, a.Gamma), eval(rest, s*restGamma/gamma, restGamma)
	m = l.mk.split(isps, s, m, vA, vR, func(m float64) float64 {
		va := eval(isps[:1], m, a.Gamma)
		return va - eval(rest, s-m, restGamma)
	})
	vA = lockstepMigration(l, isps[:1], m, a.Gamma, value, shares[:1], eqs[:1])
	vR = lockstepMigration(l, rest, s-m, restGamma, value, shares[1:], eqs[1:])
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

// checkReplay runs Market.solve on a fresh market and requires its
// outcome to be the lockstep replay's, bit for bit.
func checkReplay(t *testing.T, pop traffic.Population, nuBar float64, isps []ISP, value valueFunc) {
	t.Helper()
	l := newLockstep(t, pop, nuBar)
	shares, eqs := make([]float64, len(isps)), make([]*ClassEquilibrium, len(isps))
	level := lockstepMigration(l, isps, 1, 1, value, shares, eqs)
	out := NewMarket(nil, pop, nuBar).solve(new(MarketOutcome), isps, value)
	if math.Float64bits(out.Phi) != math.Float64bits(level) {
		t.Fatalf("level %v, retained chain %v", out.Phi, level)
	}
	for k, isp := range isps {
		if math.Float64bits(out.Shares[k]) != math.Float64bits(shares[k]) || !sameEq(out.Eqs[k], eqs[k]) {
			t.Fatalf("%s: share %v, retained chain %v", isp.Name, out.Shares[k], shares[k])
		}
	}
}

func TestScratchMatchesRetainedDuopoly(t *testing.T) {
	pop := ensemble(21, 150)
	nuBar := 0.3 * pop.TotalUnconstrainedPerCapita()
	checkReplay(t, pop, nuBar, []ISP{
		{Name: "incumbent", Gamma: 0.5, Strategy: Strategy{Kappa: 0.5, C: 0.3}},
		{Name: "po", Gamma: 0.5, Strategy: PublicOption},
	}, surplus)
}

func TestScratchMatchesRetainedRebateDuopoly(t *testing.T) {
	pop := ensemble(22, 150)
	nuBar := 0.3 * pop.TotalUnconstrainedPerCapita()
	a := SubsidizedISP{ISP: ISP{Name: "incumbent", Gamma: 0.6, Strategy: Strategy{Kappa: 0.7, C: 0.4}}, Sigma: 0.8}
	b := SubsidizedISP{ISP: ISP{Name: "po", Gamma: 0.4, Strategy: PublicOption}}
	value := func(isp ISP, eq *ClassEquilibrium) float64 {
		sigma := b.Sigma
		if isp.Name == a.Name {
			sigma = a.Sigma
		}
		return eq.Phi() + sigma*eq.Psi()
	}

	l := newLockstep(t, pop, nuBar)
	shares, eqs := make([]float64, 2), make([]*ClassEquilibrium, 2)
	lockstepMigration(l, []ISP{a.ISP, b.ISP}, 1, 1, value, shares, eqs)
	out := NewMarket(nil, pop, nuBar).SolveSubsidizedDuopoly(a, b)
	if out.Shares[0] != shares[0] || !sameEq(out.Eqs[0], eqs[0]) || !sameEq(out.Eqs[1], eqs[1]) {
		t.Fatalf("SolveSubsidizedDuopoly share %v, retained chain %v", out.Shares[0], shares[0])
	}
}

func TestScratchMatchesRetainedMarket(t *testing.T) {
	pop := ensemble(23, 120)
	nuBar := 0.35 * pop.TotalUnconstrainedPerCapita()
	checkReplay(t, pop, nuBar, []ISP{
		{Name: "a", Gamma: 0.4, Strategy: Strategy{Kappa: 0.6, C: 0.3}},
		{Name: "b", Gamma: 0.35, Strategy: Strategy{Kappa: 1, C: 0.5}},
		{Name: "po", Gamma: 0.25, Strategy: PublicOption},
	}, surplus)
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

// TestSolveIntoDoesNotAliasSolve pins the pooling contract from the owned
// side: later solves into another outcome on the same market leave an
// earlier Solve outcome untouched and share no buffer with it.
func TestSolveIntoDoesNotAliasSolve(t *testing.T) {
	pop := ensemble(36, 100)
	nuBar := 0.3 * pop.TotalUnconstrainedPerCapita()
	isps := firstISPs(2)
	mk := NewMarket(nil, pop, nuBar)
	kept := mk.Solve(isps)
	snap := NewMarket(nil, pop, nuBar).Solve(isps)

	out := new(MarketOutcome)
	other := firstISPs(3)
	other[0].Strategy = Strategy{Kappa: 0.8, C: 0.6}
	for range 2 {
		mk.SolveInto(out, other)
	}
	if slices.Equal(out.Eqs[0].InPremium, kept.Eqs[0].InPremium) {
		t.Fatal("the two markets should differ in partition; pick other strategies")
	}
	if d := outcomeDiff(kept, snap); d != "" {
		t.Fatalf("later SolveInto calls changed a Solve outcome: %s", d)
	}
	shares := func(a, b []float64) bool { return len(a) > 0 && len(b) > 0 && &a[0] == &b[0] }
	if &kept.ISPs[0] == &out.ISPs[0] || shares(kept.Shares, out.Shares) || &kept.Eqs[0] == &out.Eqs[0] {
		t.Fatal("a Solve outcome shares a slice with a SolveInto outcome")
	}
	for k := range kept.Eqs {
		kq, oq := kept.Eqs[k], out.Eqs[k]
		if kq == oq || &kq.InPremium[0] == &oq.InPremium[0] || shares(kq.Theta, oq.Theta) ||
			kq.Ordinary == oq.Ordinary || kq.Premium == oq.Premium ||
			shares(kq.Ordinary.Theta, oq.Ordinary.Theta) || shares(kq.Premium.Theta, oq.Premium.Theta) {
			t.Fatalf("%s: a Solve equilibrium shares a buffer with a SolveInto one", kept.ISPs[k].Name)
		}
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

// solveIntoBudget is the byte budget of a warm SolveInto on a reused
// outcome. Measured: 0 B per solve at 200 and at 1000 CPs, with the
// incumbent at κ = 1 and at κ = 0.5. The budget leaves room for a few
// small allocations, and for a stray allocation of the runtime's during
// the measurement, but not for one per-CP buffer: a 200-CP θ profile
// alone takes 1,600 B, and cloning the two kept equilibria 36,240 B.
const solveIntoBudget = 1 << 10

// TestSolveIntoWarmBytes is the market rung of the zero-allocation
// contract: once an outcome's buffers have grown, a warm SolveInto
// retains its equilibria without allocating per-CP buffers, so its bytes
// do not grow with the population.
func TestSolveIntoWarmBytes(t *testing.T) {
	for _, n := range []int{200, 1000} {
		pop := ensemble(37, n)
		sat := pop.TotalUnconstrainedPerCapita()
		for _, a := range []ISP{
			{Name: "incumbent", Gamma: 0.5, Strategy: Strategy{Kappa: 1, C: 0.3}},
			{Name: "incumbent", Gamma: 0.5, Strategy: Strategy{Kappa: 0.5, C: 0.3}},
		} {
			isps := []ISP{a, {Name: "po", Gamma: 0.5, Strategy: PublicOption}}
			mk := NewMarket(nil, pop, 0.3*sat)
			out := new(MarketOutcome)
			bytes := bytesPerRun(10, func() { mk.SolveInto(out, isps) })
			t.Logf("%d CPs, κ=%v: %d B per warm SolveInto", n, a.Strategy.Kappa, bytes)
			if bytes > solveIntoBudget {
				t.Errorf("%d CPs, κ=%v: %d B per warm SolveInto, budget %d", n, a.Strategy.Kappa, bytes, solveIntoBudget)
			}
		}
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the heap bytes f
// allocates per call, averaged over runs calls after one warm-up call,
// with GOMAXPROCS at 1 so that other goroutines allocate as little as
// possible meanwhile.
func bytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}
