// Package econ implements the economic accounting of the Ma–Misra model:
// per-capita consumer surplus Φ (Eq. 2), ISP surplus Ψ (§III-A), content
// provider utilities (Eq. 4), welfare decompositions, and the numerical
// check of Theorem 2. The surplus-discontinuity metric ε_s (Eq. 9) is a test
// oracle in internal/core (nash_oracle_test.go).
//
// Everything is per capita, consistent with the alloc package: multiply by
// the consumer mass M for absolute surpluses. Per-capita quantities are the
// right invariants because the whole model is scale independent (Axiom 4).
package econ

import (
	"github.com/netecon-sim/publicoption/internal/alloc"
	"github.com/netecon-sim/publicoption/internal/numeric"
	"github.com/netecon-sim/publicoption/internal/traffic"
)

// Phi returns the per-capita consumer surplus (Eq. 2) of a rate equilibrium:
//
//	Φ = Σ_i φ_i · α_i · d_i(θ_i) · θ_i
//
// The sum streams through a Kahan accumulator: Phi sits on the market
// solvers' hot path (one evaluation per migration-bisection iteration), so
// it must not allocate.
func Phi(res *alloc.Result) float64 {
	var k numeric.Kahan
	for i := range res.Theta {
		k.Add(res.Pop[i].Phi * res.PerCapitaRate(i))
	}
	return k.Value()
}

// PhiAt solves the rate equilibrium of (ν, pop) under mechanism a and
// returns its per-capita consumer surplus. It is the function Φ(ν, N) whose
// monotonicity is Theorem 2.
func PhiAt(a alloc.Allocator, nu float64, pop traffic.Population) float64 {
	return Phi(alloc.NewWorkspace(a).Solve(nu, pop))
}

// MaxPhi returns the saturation value Σ_i φ_i·α_i·θ̂_i that Φ reaches once
// per-capita capacity covers all unconstrained throughput (Theorem 2's
// strict-increase region ends here).
func MaxPhi(pop traffic.Population) float64 {
	terms := make([]float64, len(pop))
	for i := range pop {
		terms[i] = pop[i].Phi * pop[i].UnconstrainedPerCapitaRate()
	}
	return numeric.Sum(terms)
}

// Revenue returns the per-capita ISP surplus Ψ = c · Σ_i α_i·d_i(θ_i)·θ_i of
// a premium-class equilibrium priced at c: res must be the equilibrium of
// the premium class's population on the premium class's capacity. Like
// Aggregate and Phi it is called per finalized cell, so the compensated
// sum runs inline without allocating.
func Revenue(res *alloc.Result, c float64) float64 {
	return c * res.Aggregate()
}

// CPUtilityPerCapita returns u_i/M (Eq. 4) for a CP achieving per-user
// throughput theta while paying price (0 for the ordinary class, c for the
// premium class):
//
//	u_i/M = (v_i − price) · α_i · d_i(θ_i) · θ_i
func CPUtilityPerCapita(cp *traffic.CP, theta, price float64) float64 {
	return (cp.V - price) * cp.PerCapitaRate(theta)
}

// Welfare aggregates the per-capita surplus of every party in one class
// equilibrium: consumers (Φ), the ISP's CP-side revenue (Ψ at price c) and
// the CPs' net utilities. The identity Welfare = Φ + Σ_i v_i·α_i·ρ_i holds
// because the price c is a pure transfer from CPs to the ISP.
type Welfare struct {
	Consumer float64 // Φ
	ISP      float64 // Ψ
	CPs      float64 // Σ u_i / M
}

// WelfareOf computes the welfare decomposition of a class equilibrium at
// price c (use c = 0 for an ordinary/neutral class).
func WelfareOf(res *alloc.Result, c float64) Welfare {
	w := Welfare{Consumer: Phi(res), ISP: Revenue(res, c)}
	terms := make([]float64, len(res.Theta))
	for i := range res.Theta {
		terms[i] = CPUtilityPerCapita(&res.Pop[i], res.Theta[i], c)
	}
	w.CPs = numeric.Sum(terms)
	return w
}
