package core

import (
	"math"

	"github.com/netecon-sim/publicoption/internal/alloc"
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
