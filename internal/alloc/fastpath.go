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
// Workspace kernel flattens every built-in mechanism into float arrays and
// evaluates its aggregate map down one loop, and the class game's
// screening dynamics evaluate single CPs through EvalRate and EvalRho.
// Only a user-supplied mechanism takes the generic per-CP RateAt loop.
//
// Semantics are pinned to the generic path: every fast branch replicates
// the corresponding method (RateAt, Curve.At, CP.Rho) expression for
// expression, so a fast evaluation and a generic evaluation of the same
// quantity agree bit for bit. The golden-equivalence tests in
// solver_test.go and the kernel golden enforce this across mechanisms and
// demand families.

// flattener is implemented by every built-in mechanism. Its aggregate map
// is the flattened sum
//
//	Σ_i w_i·d_i(x_i/c_i)·x_i,  x_i(ℓ) = min(g_i·ℓ, c_i)
//
// over per-CP gains g_i, weights w_i, caps c_i and demand curves d_i that
// depend only on the CP (not the level), so the Workspace kernel solves it
// with zero interface calls in the inner loop. For the level-linear
// mechanisms — the paper's max-min (g_i = 1) and the whole Mo–Walrand
// α-fair family (g_i = w_i^(1/α)) — w_i = α_i, c_i = θ̂_i, d_i is the
// CP's demand curve and x_i is its rate θ_i. PerCPMaxMin water-fills the
// aggregate rates themselves: g_i = w_i = 1, c_i = α_i·θ̂_i and a constant
// d_i, and its rates invert x_i through RateAt.
type flattener interface {
	// flatten fills w's per-CP arrays for pop and returns the level at
	// which every CP is unconstrained (identical to LevelHi) and whether
	// x_i is CP i's rate.
	flatten(w *Workspace, pop traffic.Population) (hi float64, linear bool)
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

// EvalRate is Allocator.RateAt with max-min devirtualized: the paper's
// mechanism is evaluated inline, and every other mechanism through the
// interface.
//
//pubopt:hotpath
func EvalRate(a Allocator, level float64, cp *traffic.CP) float64 {
	if _, ok := a.(MaxMin); ok {
		if level <= 0 {
			return 0
		}
		return math.Min(level, cp.ThetaHat)
	}
	return a.RateAt(level, cp)
}
