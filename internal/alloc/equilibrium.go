package alloc

import (
	"fmt"
	"math"

	"github.com/netecon-sim/publicoption/internal/numeric"
	"github.com/netecon-sim/publicoption/internal/traffic"
)

// Result is the rate equilibrium of a per-capita system (ν, pop) under an
// allocation mechanism: the unique throughput profile of Theorem 1.
//
// Everything is per capita; multiply by M to recover absolute rates (the
// model is scale independent, Axiom 4 / Lemma 1).
type Result struct {
	Nu          float64            // per-capita capacity ν = µ/M
	Level       float64            // the mechanism's operating level at equilibrium
	Theta       []float64          // θ_i: achievable per-user throughput, per CP
	Constrained bool               // true iff ν < Σ α_i θ̂_i (link is a bottleneck)
	Pop         traffic.Population // the population the equilibrium is for
}

// Demand returns d_i(θ_i), the equilibrium demand level of CP i.
func (r *Result) Demand(i int) float64 { return r.Pop[i].DemandAt(r.Theta[i]) }

// PerCapitaRate returns λ_i/M = α_i·d_i(θ_i)·θ_i for CP i.
func (r *Result) PerCapitaRate(i int) float64 { return r.Pop[i].PerCapitaRate(r.Theta[i]) }

// Aggregate returns λ_N/M = Σ_i λ_i/M, the equilibrium aggregate per-capita
// throughput. By Axiom 2 this equals min(ν, Σ α_i θ̂_i) up to solver
// tolerance. The sum streams through a Kahan accumulator (it is called
// from metrics and per-cell finalization, so it must not allocate).
func (r *Result) Aggregate() float64 {
	var k numeric.Kahan
	for i := range r.Theta {
		k.Add(r.PerCapitaRate(i))
	}
	return k.Value()
}

// Clone returns a deep copy of the equilibrium, detached from any solver
// workspace: both the θ profile and the population slice header are copied,
// so the clone stays valid after the workspace that produced the original
// rebinds its buffers. Results returned by Solve are already owned and do
// not need cloning.
func (r *Result) Clone() *Result { return r.CopyInto(new(Result)) }

// CopyInto makes dst a deep copy of r, as Clone does, reusing dst's θ and
// population buffers when they are large enough, and returns dst. Once
// those buffers have grown, copying an equilibrium allocates nothing.
func (r *Result) CopyInto(dst *Result) *Result {
	theta, pop := dst.Theta, dst.Pop
	*dst = *r
	dst.Theta = append(theta[:0], r.Theta...)
	dst.Pop = append(pop[:0], r.Pop...)
	return dst
}

// String summarizes the equilibrium for debugging.
func (r *Result) String() string {
	return fmt.Sprintf("equilibrium(ν=%g, level=%g, constrained=%t, n=%d, agg=%g)",
		r.Nu, r.Level, r.Constrained, len(r.Theta), r.Aggregate())
}

// relTol is the relative level tolerance of the equilibrium bisection. The
// level range is LevelHi; 1e-12 relative leaves the aggregate-rate residual
// far below any quantity the games compare.
const relTol = 1e-12

// Solve computes the unique rate equilibrium of the per-capita system
// (ν, pop) under mechanism a (Theorem 1).
//
// If ν covers the total unconstrained throughput, every CP gets θ̂_i and the
// link is not a bottleneck. Otherwise the equilibrium level is the root of
// the (continuous, non-decreasing) aggregate-rate map
//
//	ℓ ↦ Σ_i α_i · d_i(RateAt(ℓ, i)) · RateAt(ℓ, i) − ν
//
// on [0, LevelHi], found by bisection. Uniqueness of the resulting θ profile
// is the paper's Theorem 1; the axiom checkers in this package verify the
// preconditions for each mechanism.
//
// Solve panics on negative ν (a programming error); an empty population
// yields an empty, unconstrained result.
//
// Solve is the reference implementation: a fixed cold bisection with
// per-CP interface dispatch, kept deliberately simple. The hot paths (the
// class game, the market solvers, grid sweeps) solve through the reusable
// Workspace, whose warm-started, devirtualized kernel is pinned to this
// function by the golden-equivalence tests in solver_test.go.
func Solve(a Allocator, nu float64, pop traffic.Population) *Result {
	if nu < 0 || math.IsNaN(nu) {
		panic(fmt.Sprintf("alloc: Solve called with invalid ν=%g", nu))
	}
	res := &Result{Nu: nu, Pop: pop, Theta: make([]float64, len(pop))}
	if len(pop) == 0 {
		return res
	}
	total := pop.TotalUnconstrainedPerCapita()
	hi := a.LevelHi(pop)
	if nu >= total {
		// Uncongested: Axiom 2 forces λ_i = λ̂_i for every CP.
		for i := range pop {
			res.Theta[i] = pop[i].ThetaHat
		}
		res.Level = hi
		return res
	}
	res.Constrained = true
	aggregateAt := func(level float64) float64 {
		var sum float64
		for i := range pop {
			sum += pop[i].PerCapitaRate(a.RateAt(level, &pop[i]))
		}
		return sum
	}
	level := numeric.Bisect(func(l float64) float64 { return aggregateAt(l) - nu }, 0, hi, relTol*hi)
	res.Level = level
	for i := range pop {
		res.Theta[i] = a.RateAt(level, &pop[i])
	}
	return res
}

// SolveSystem is the absolute-scale entry point: it computes the rate
// equilibrium of the system (M, µ, pop) by reducing to per-capita form,
// which is exact by Axiom 4 (Lemma 1). M must be positive.
func SolveSystem(a Allocator, m, mu float64, pop traffic.Population) *Result {
	if !(m > 0) {
		panic(fmt.Sprintf("alloc: SolveSystem called with M=%g, want > 0", m))
	}
	return Solve(a, mu/m, pop)
}
