package core

// The reference implementations the class-game and market tests compare
// against: Definition 2's exact Nash solver and check, the Definition 3
// violation count, Theorem 6's δ_s and Eq. 9's ε_s. No production path runs
// them; they live beside the tests so the library holds only what the
// program executes.

import (
	"math"

	"github.com/netecon-sim/publicoption/internal/alloc"
	"github.com/netecon-sim/publicoption/internal/numeric"
	"github.com/netecon-sim/publicoption/internal/traffic"
)

// nashUtility returns CP i's exact per-capita utility if the partition were
// premium (including CP i's own congestion externality — the Nash
// counterfactual of Lemma 2, as opposed to the throughput-taking estimate).
func (s *Solver) nashUtility(strategy Strategy, nu float64, pop traffic.Population, premium []bool, i int, joinPremium bool) float64 {
	old := premium[i]
	premium[i] = joinPremium
	o, p := s.splitScratch(pop, premium)
	premium[i] = old

	cp := &pop[i]
	if joinPremium {
		res := s.wsP.Solve(strategy.Kappa*nu, p)
		theta := thetaOf(res, cp.Name)
		return (cp.V - strategy.C) * cp.PerCapitaRate(theta)
	}
	res := s.wsO.Solve((1-strategy.Kappa)*nu, o)
	theta := thetaOf(res, cp.Name)
	return cp.V * cp.PerCapitaRate(theta)
}

// thetaOf finds the equilibrium throughput of the named CP inside a class
// result. Names are unique within a population by construction of the
// generators; archetype populations also have distinct names.
func thetaOf(res *alloc.Result, name string) float64 {
	for j := range res.Pop {
		if res.Pop[j].Name == name {
			return res.Theta[j]
		}
	}
	panic("core: CP not found in class result: " + name)
}

// Nash computes a Nash equilibrium (Definition 2) of the CP class-choice
// game by sequential best response: CPs revise their class one at a time
// (round robin), moving only on strict improvement — the tie-break prefers
// the ordinary class — until a full round passes with no move. The result
// reports convergence; maxRounds bounds the dynamics (each round is
// O(N · class solves), so keep populations small — use Competitive for the
// 1000-CP ensembles, as the paper does).
func (s *Solver) Nash(strategy Strategy, nu float64, pop traffic.Population, maxRounds int) *ClassEquilibrium {
	if err := strategy.Validate(); err != nil {
		panic(err)
	}
	if maxRounds <= 0 {
		maxRounds = 50
	}
	// Start from the affordability guess to shorten the dynamics.
	eq := s.begin(strategy, nu, pop, nil)
	if strategy.NoPremium() || len(pop) == 0 {
		s.finalize(eq)
		return eq.Clone()
	}
	for round := 0; round < maxRounds; round++ {
		eq.Iterations = round + 1
		moved := false
		for i := range pop {
			uO := s.nashUtility(strategy, nu, pop, eq.InPremium, i, false)
			uP := s.nashUtility(strategy, nu, pop, eq.InPremium, i, true)
			want := uP > uO // tie → ordinary
			if want != eq.InPremium[i] {
				eq.InPremium[i] = want
				moved = true
			}
		}
		if !moved {
			s.finalize(eq)
			return eq.Clone()
		}
	}
	eq.Converged = false
	s.finalize(eq)
	return eq.Clone()
}

// IsNash checks Definition 2 exactly: no single CP can strictly gain by
// switching classes (with ties resolved toward the ordinary class, a CP in
// the premium class must be strictly better off there). tol absorbs solver
// noise in the utility comparison.
func (s *Solver) IsNash(eq *ClassEquilibrium, tol float64) bool {
	if eq.Strategy.NoPremium() {
		return true // single class: nothing to deviate to
	}
	if tol <= 0 {
		tol = 1e-12
	}
	for i := range eq.Pop {
		uStay := s.nashUtility(eq.Strategy, eq.Nu, eq.Pop, eq.InPremium, i, eq.InPremium[i])
		uMove := s.nashUtility(eq.Strategy, eq.Nu, eq.Pop, eq.InPremium, i, !eq.InPremium[i])
		scale := math.Max(math.Abs(uStay), 1)
		if eq.InPremium[i] {
			// Definition 2 requires strict preference for the premium class
			// (a tie would send the CP to the ordinary class).
			if !(uStay > uMove+tol*scale) {
				return false
			}
		} else if uMove > uStay+tol*scale {
			// Ordinary membership tolerates ties.
			return false
		}
	}
	return true
}

// AllNash enumerates every Nash equilibrium of the class-choice game by
// exhaustive search over all 2^N partitions. It is exponential and panics
// for N > 20; it exists to validate the best-response and competitive
// solvers on small instances.
func (s *Solver) AllNash(strategy Strategy, nu float64, pop traffic.Population) []*ClassEquilibrium {
	if len(pop) > 20 {
		panic("core: AllNash is exponential; population too large")
	}
	var out []*ClassEquilibrium
	n := len(pop)
	premium := make([]bool, n)
	for mask := 0; mask < 1<<n; mask++ {
		for i := 0; i < n; i++ {
			premium[i] = mask&(1<<i) != 0
		}
		eq := s.begin(strategy, nu, pop, premium)
		s.finalize(eq)
		// IsNash re-solves the classes on the same kernels: detach first.
		eq = eq.Clone()
		if s.IsNash(eq, 0) {
			out = append(out, eq)
		}
		if strategy.NoPremium() {
			break // only the all-ordinary partition is meaningful
		}
	}
	return out
}

// VerifyCompetitive counts the CPs whose class choice violates the
// ε-equilibrium condition (Definition 3 under the rational-expectations
// estimator, equivalently Definition 2): a violation is a CP that would gain
// strictly more than eps times its utility scale by switching classes, where
// the target class is evaluated at its exact post-join level. eps <= 0 uses
// the equilibrium's own EpsUsed. A converged equilibrium has zero violations
// at its EpsUsed by construction.
func (s *Solver) VerifyCompetitive(eq *ClassEquilibrium, eps float64) int {
	if eq.Strategy.NoPremium() {
		return 0 // single class: nothing to choose
	}
	if eps <= 0 {
		eps = eq.EpsUsed
	}
	capO := (1 - eq.Strategy.Kappa) * eq.Nu
	capP := eq.Strategy.Kappa * eq.Nu
	o, p := s.splitScratch(eq.Pop, eq.InPremium)
	violations := 0
	for i := range eq.Pop {
		cp := &eq.Pop[i]
		var uCur, uTarget float64
		if eq.InPremium[i] {
			uCur = (cp.V - eq.Strategy.C) * cp.Alpha * cp.Rho(eq.Theta[i])
			uTarget = cp.V * cp.Alpha * cp.Rho(s.postJoinTheta(cp, capO, o))
		} else {
			uCur = cp.V * cp.Alpha * cp.Rho(eq.Theta[i])
			uTarget = (cp.V - eq.Strategy.C) * cp.Alpha * cp.Rho(s.postJoinTheta(cp, capP, p))
		}
		if uTarget-uCur > eps*utilityScale(cp, eq.Strategy.C) {
			violations++
		}
	}
	return violations
}

// DeltaGap computes the paper's δ_s metric for ISP `who` from sampled
// deviation outcomes: the largest market-share advantage a deviation can
// deliver without also delivering more consumer surplus,
//
//	δ = sup{ m(s′) − m(s) : Φ(s′) ≤ Φ(s) }
//
// evaluated over all ordered pairs of grid strategies. Theorem 6 bounds the
// market-share loss of a surplus-maximizing ISP by this quantity.
func (mk *Market) DeltaGap(isps []ISP, who int, grid StrategyGrid) float64 {
	type point struct{ m, phi float64 }
	cand := append([]ISP(nil), isps...)
	var pts []point
	out := new(MarketOutcome)
	for _, s := range grid.Strategies() {
		cand[who].Strategy = s
		mk.SolveInto(out, cand)
		pts = append(pts, point{m: out.Shares[who], phi: out.Phi})
	}
	var delta float64
	for _, a := range pts { // deviation s′
		for _, b := range pts { // reference s
			if a.phi <= b.phi+1e-12 {
				if d := a.m - b.m; d > delta {
					delta = d
				}
			}
		}
	}
	return delta
}

// EpsilonGapForStrategy evaluates ε_s (Eq. 9) for one ISP strategy on this
// market's population: the largest downward jump of Φ(ν, N, s) over the
// capacity grid.
func (mk *Market) EpsilonGapForStrategy(s Strategy, nuGrid []float64) float64 {
	solver := mk.Solver
	ys := make([]float64, len(nuGrid))
	var warm []bool
	for i, nu := range nuGrid {
		eq := solver.CompetitiveScratch(s, nu, mk.Pop, warm)
		warm = append(warm[:0], eq.InPremium...)
		ys[i] = eq.Phi()
	}
	return numeric.MaxDownwardGap(ys)
}
