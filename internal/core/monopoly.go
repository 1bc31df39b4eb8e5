package core

import (
	"math"

	"github.com/netecon-sim/publicoption/internal/numeric"
	"github.com/netecon-sim/publicoption/internal/traffic"
)

// Monopoly analyzes the two-stage Stackelberg game (M, µ, N, I) of §III: a
// single last-mile ISP announces s = (κ, c), then the CPs partition into
// classes, and the ISP's payoff is the premium revenue Ψ.
type Monopoly struct {
	Solver *Solver
	// Warm enables warm-started CP equilibria across Outcome calls made by
	// the optimizers and sweeps (safe because the optimizers sweep smoothly).
	warm []bool
}

// NewMonopoly returns a monopoly analyzer over the given class-game solver
// (nil for defaults).
func NewMonopoly(s *Solver) *Monopoly {
	if s == nil {
		s = NewSolver(nil)
	}
	return &Monopoly{Solver: s}
}

// Outcome computes the CP competitive equilibrium the strategy induces on
// per-capita capacity ν. Sweeping callers benefit from the internal warm
// start; call ResetWarm between unrelated sweeps.
func (m *Monopoly) Outcome(s Strategy, nu float64, pop traffic.Population) *ClassEquilibrium {
	eq := m.Solver.CompetitiveFrom(s, nu, pop, m.warm)
	m.warm = append(m.warm[:0], eq.InPremium...)
	return eq
}

// ResetWarm clears the warm-start partition.
func (m *Monopoly) ResetWarm() { m.warm = nil }

// OptimalPrice maximizes the ISP surplus Ψ over the price c ∈ [0, cHi] at
// fixed κ, by grid search with golden-section refinement (the revenue curve
// is piecewise smooth with kinks where CPs enter/leave the premium class, so
// the grid localizes the global peak and the refinement sharpens it). It
// returns the best price and its outcome.
func (m *Monopoly) OptimalPrice(kappa, cHi, nu float64, pop traffic.Population, gridN int) (float64, *ClassEquilibrium) {
	if gridN <= 0 {
		gridN = 100
	}
	m.ResetWarm()
	obj := func(c float64) float64 {
		return m.Outcome(Strategy{Kappa: kappa, C: c}, nu, pop).Psi()
	}
	best, _ := numeric.RefineMax(obj, 0, cHi, gridN, 1e-9*math.Max(cHi, 1))
	m.ResetWarm()
	eq := m.Outcome(Strategy{Kappa: kappa, C: best}, nu, pop)
	return best, eq
}

// OptimalStrategy maximizes Ψ over the full strategy box
// [0,1] × [0, cHi] with a (kGrid+1)×(cGrid+1) grid followed by Nelder–Mead
// polish. Theorem 4 predicts the optimum sits at κ = 1; the optimizer does
// not assume it, so the theorem can be checked against this search.
func (m *Monopoly) OptimalStrategy(cHi, nu float64, pop traffic.Population, kGrid, cGrid int) (Strategy, *ClassEquilibrium) {
	if kGrid <= 0 {
		kGrid = 10
	}
	if cGrid <= 0 {
		cGrid = 40
	}
	obj := func(kappa, c float64) float64 {
		m.ResetWarm() // κ jumps around: warm starts would mislead
		return m.Outcome(Strategy{Kappa: kappa, C: c}, nu, pop).Psi()
	}
	k0, c0, _ := numeric.GridMax2D(obj, 0, 1, 0, cHi, kGrid, cGrid)
	k, c, _ := numeric.NelderMead2D(obj, k0, c0, 0, 1, 0, cHi, 1e-7, 200)
	// Keep whichever of the grid point and the polished point is better —
	// Nelder–Mead can slide off a kink.
	if obj(k0, c0) > obj(k, c) {
		k, c = k0, c0
	}
	m.ResetWarm()
	best := Strategy{Kappa: k, C: c}
	return best, m.Outcome(best, nu, pop)
}

// CheckTheorem4 verifies the dominance claim of Theorem 4 on a price grid:
// for every price c, revenue under (κ, c) must not exceed revenue under
// (1, c) beyond tolerance. It returns the worst observed violation (a
// non-positive value means the theorem held on the grid).
func (m *Monopoly) CheckTheorem4(kappas, prices []float64, nu float64, pop traffic.Population) float64 {
	worst := math.Inf(-1)
	for _, c := range prices {
		m.ResetWarm()
		full := m.Solver.Trivial(Strategy{Kappa: 1, C: c}, nu, pop).Psi()
		for _, k := range kappas {
			m.ResetWarm()
			partial := m.Outcome(Strategy{Kappa: k, C: c}, nu, pop).Psi()
			if v := partial - full; v > worst {
				worst = v
			}
		}
	}
	m.ResetWarm()
	return worst
}
