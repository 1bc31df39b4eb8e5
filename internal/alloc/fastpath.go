package alloc

import (
	"math"

	"github.com/netecon-sim/publicoption/internal/demand"
	"github.com/netecon-sim/publicoption/internal/traffic"
)

// This file is the devirtualized evaluation layer of the equilibrium hot
// path. Every quantity the games compute bottoms out in two per-CP maps —
// the mechanism's level→rate map RateAt and the demand composition
// d_i(θ)·θ — and both are interface calls in the generic formulation. The
// helpers here recover the concrete types of the built-in mechanisms and
// demand families so the inner loops run as straight-line float code: the
// Workspace kernel flattens level-linear mechanisms into float arrays and
// runs the rest through their BulkAllocator methods, and the class game's
// screening dynamics evaluate single CPs through EvalRate and EvalRho.
//
// Semantics are pinned to the generic path: every fast branch replicates
// the corresponding method (RateAt, Curve.At, CP.Rho) expression for
// expression, so a fast evaluation and a generic evaluation of the same
// quantity agree bit for bit. The golden-equivalence tests in
// solver_test.go enforce this across mechanisms and demand families.

// BulkAllocator is the optional whole-population fast path of a mechanism.
// Implementations evaluate the level map for every CP in one call with a
// concrete receiver, removing the per-CP interface dispatch of
// Allocator.RateAt from the solver's inner loop. All built-in mechanisms
// implement it; the Workspace falls back to the generic per-CP loop for
// mechanisms that do not.
type BulkAllocator interface {
	// AggregateAt returns Σ_i α_i·d_i(θ_i(level))·θ_i(level), the aggregate
	// per-capita rate of the population at the given operating level.
	AggregateAt(level float64, pop traffic.Population) float64
	// RatesAt fills out[i] with θ_i(level) for every CP in pop. out must
	// have length len(pop).
	RatesAt(level float64, pop traffic.Population, out []float64)
}

// levelLinear is implemented by mechanisms whose level form is
//
//	θ_i(ℓ) = min(g_i·ℓ, θ̂_i)
//
// for per-CP gains g_i that depend only on the CP (not the level). The
// Workspace kernel flattens such mechanisms into plain float arrays and
// solves with zero interface calls in the inner loop. The paper's max-min
// mechanism (g_i = 1) and the whole Mo–Walrand α-fair family
// (g_i = w_i^(1/α)) are level-linear; PerCPMaxMin is not (its level map
// needs an inner inversion) and takes the BulkAllocator path instead.
type levelLinear interface {
	// gains fills out[i] = g_i for every CP in pop and returns the level at
	// which every CP is unconstrained (identical to LevelHi).
	gains(pop traffic.Population, out []float64) (hi float64)
}

// demand-curve kinds of the flattened fast path. Families not listed fall
// back to the Curve interface (still inside the devirtualized mechanism
// loop).
const (
	dGeneric = uint8(iota)
	dExponential
	dConstant
	dLinear
	dPower
)

// classifyCurve maps a demand curve to its fast-path kind and parameter.
//
//pubopt:hotpath
func classifyCurve(c demand.Curve) (kind uint8, param float64) {
	switch d := c.(type) {
	case demand.Exponential:
		return dExponential, d.Beta
	case demand.Constant:
		return dConstant, 0
	case demand.Linear:
		return dLinear, d.Floor
	case demand.Power:
		return dPower, d.Gamma
	default:
		return dGeneric, 0
	}
}

// demandAtKind evaluates the classified demand family at normalized
// throughput omega ∈ (0, 1]. It replicates each family's At method exactly.
//
//pubopt:hotpath
func demandAtKind(kind uint8, param, omega float64) float64 {
	switch kind {
	case dExponential:
		if omega >= 1 {
			return 1
		}
		return math.Exp(-param * (1/omega - 1))
	case dConstant:
		return 1
	case dLinear:
		if omega >= 1 {
			return 1
		}
		return param + (1-param)*omega
	case dPower:
		if omega >= 1 {
			return 1
		}
		if param == 0 { //pubopt:allow(floatcmp): γ=0 is the exact config sentinel for the constant curve, mirroring demand.Power
			return 1
		}
		return math.Pow(omega, param)
	}
	return math.NaN() // unreachable: callers never pass dGeneric
}

// EvalRho is CP.Rho with the demand evaluation devirtualized for the
// built-in families: d_i(θ)·θ, the CP's per-capita throughput over its own
// user base at achieved per-user throughput theta.
//
//pubopt:hotpath
func EvalRho(cp *traffic.CP, theta float64) float64 {
	if theta <= 0 {
		return 0
	}
	if theta > cp.ThetaHat {
		theta = cp.ThetaHat
	}
	if kind, param := classifyCurve(cp.Curve); kind != dGeneric {
		return demandAtKind(kind, param, theta/cp.ThetaHat) * theta
	}
	return cp.Curve.At(theta/cp.ThetaHat) * theta
}

// EvalPerCapitaRate is CP.PerCapitaRate through the fast demand path:
// α_i·d_i(θ)·θ.
//
//pubopt:hotpath
func EvalPerCapitaRate(cp *traffic.CP, theta float64) float64 {
	return cp.Alpha * EvalRho(cp, theta)
}

// EvalRate is Allocator.RateAt with the built-in mechanisms devirtualized:
// a concrete-type dispatch replaces the interface call for MaxMin,
// AlphaFair and PerCPMaxMin, and unknown mechanisms fall back to the
// interface.
//
//pubopt:hotpath
func EvalRate(a Allocator, level float64, cp *traffic.CP) float64 {
	switch m := a.(type) {
	case MaxMin:
		if level <= 0 {
			return 0
		}
		return math.Min(level, cp.ThetaHat)
	case AlphaFair:
		return m.RateAt(level, cp)
	case PerCPMaxMin:
		return m.RateAt(level, cp)
	}
	return a.RateAt(level, cp)
}
