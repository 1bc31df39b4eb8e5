// Package demand implements the consumer demand functions of the Ma–Misra
// model (§II-A of the paper).
//
// A demand function d_i maps the throughput a content provider's users
// actually achieve to the fraction of its user base that keeps downloading.
// The paper's Assumption 1 requires d to be non-negative, continuous and
// non-decreasing on [0, θ̂_i] with d(θ̂_i) = 1.
//
// Every curve in this package is expressed over the normalized throughput
// ω = θ/θ̂ ∈ [0, 1] (the paper does the same when plotting Figure 2). This
// makes curves reusable across content providers with different
// unconstrained throughputs θ̂: the traffic package pairs a normalized curve
// with a θ̂ to obtain the dimensional demand d_i(θ_i) = Curve(θ_i/θ̂_i).
//
// The paper's evaluation uses exclusively the exponential-sensitivity family
// (Eq. 3); the other families here exist because the theory requires only
// Assumption 1, and the test suite exercises the axiomatic framework across
// all of them.
package demand

import (
	"fmt"
	"math"
)

// Curve is a normalized demand curve: At(ω) is the fraction of users that
// remain active when they achieve the fraction ω ∈ [0, 1] of their
// unconstrained throughput.
//
// Implementations must satisfy (the normalized restatement of) Assumption 1:
// At is non-negative, continuous and non-decreasing on [0, 1] with At(1) = 1.
// The package tests check every built-in curve against them numerically.
type Curve interface {
	// At returns the demand level at normalized throughput omega. Callers
	// may pass values slightly outside [0,1] due to floating-point noise;
	// implementations clamp.
	At(omega float64) float64
	// Name identifies the family for diagnostics and rendered output.
	Name() string
}

// Exponential is the paper's demand family (Eq. 3):
//
//	d(ω) = exp(−β (1/ω − 1))
//
// β is the throughput sensitivity: large β models real-time content
// (Netflix, Skype) whose audience evaporates as soon as throughput degrades;
// small β models elastic content (web search) that tolerates slowdown.
// At ω = 0 the demand is 0 (taken as the continuous limit).
type Exponential struct {
	Beta float64 // sensitivity β > 0
}

// At evaluates Eq. 3 at normalized throughput omega.
func (e Exponential) At(omega float64) float64 {
	if omega <= 0 {
		return 0
	}
	if omega >= 1 {
		return 1
	}
	return math.Exp(-e.Beta * (1/omega - 1))
}

// Name implements Curve.
func (e Exponential) Name() string { return fmt.Sprintf("exp(β=%g)", e.Beta) }

// Constant is the fully throughput-insensitive demand d(ω) ≡ 1: every user
// keeps downloading no matter how congested the network is. It is the β → 0
// limit of Exponential and a useful degenerate case in tests.
type Constant struct{}

// At implements Curve.
func (Constant) At(omega float64) float64 {
	if omega < 0 {
		return 0 // d(0) may be anything in [0,1]; keep 0 below the domain
	}
	return 1
}

// Name implements Curve.
func (Constant) Name() string { return "constant" }

// Linear interpolates demand linearly from Floor at ω = 0 to 1 at ω = 1:
//
//	d(ω) = Floor + (1 − Floor)·ω
//
// Floor must lie in [0, 1].
type Linear struct {
	Floor float64
}

// At implements Curve.
func (l Linear) At(omega float64) float64 {
	switch {
	case omega <= 0:
		return l.Floor
	case omega >= 1:
		return 1
	}
	return l.Floor + (1-l.Floor)*omega
}

// Name implements Curve.
func (l Linear) Name() string { return fmt.Sprintf("linear(floor=%g)", l.Floor) }

// Power is the constant-elasticity family d(ω) = ω^Gamma with Gamma >= 0.
// Gamma = 0 degenerates to Constant; large Gamma concentrates all demand
// loss near ω = 1.
type Power struct {
	Gamma float64
}

// At implements Curve.
func (p Power) At(omega float64) float64 {
	switch {
	case omega <= 0:
		//pubopt:allow(floatcmp): γ=0 is the exact config sentinel that degenerates Power to the constant curve d≡1
		if p.Gamma == 0 {
			return 1
		}
		return 0
	case omega >= 1:
		return 1
	}
	return math.Pow(omega, p.Gamma)
}

// Name implements Curve.
func (p Power) Name() string { return fmt.Sprintf("power(γ=%g)", p.Gamma) }

// SmoothStep is a continuous approximation of threshold demand: users abandon
// the service almost entirely below the normalized threshold T and stay
// almost entirely above it, with logistic steepness K. It models strict
// real-time applications (the "performance cannot be tolerated" pattern of
// §II-D.1) while remaining continuous as Assumption 1 requires:
//
//	d(ω) = σ(K(ω−T)) / σ(K(1−T)),  σ(x) = 1/(1+e^−x)
type SmoothStep struct {
	T float64 // threshold in (0, 1)
	K float64 // steepness > 0
}

// At implements Curve.
func (s SmoothStep) At(omega float64) float64 {
	if omega >= 1 {
		return 1
	}
	if omega < 0 {
		omega = 0
	}
	sig := func(x float64) float64 { return 1 / (1 + math.Exp(-x)) }
	return sig(s.K*(omega-s.T)) / sig(s.K*(1-s.T))
}

// Name implements Curve.
func (s SmoothStep) Name() string { return fmt.Sprintf("smoothstep(T=%g,K=%g)", s.T, s.K) }

// Piecewise is a continuous piecewise-linear demand curve through the given
// knots. Knots must start at ω = 0, end at ω = 1 with demand 1, be strictly
// increasing in ω and non-decreasing in demand; NewPiecewise enforces this.
type Piecewise struct {
	omegas, levels []float64
}

// NewPiecewise constructs a piecewise-linear demand curve and validates the
// knot sequence against Assumption 1. The returned error describes the first
// violated requirement.
func NewPiecewise(omegas, levels []float64) (*Piecewise, error) {
	if len(omegas) != len(levels) || len(omegas) < 2 {
		return nil, fmt.Errorf("demand: need >= 2 knots with matching lengths, got %d/%d", len(omegas), len(levels))
	}
	//pubopt:allow(floatcmp): Assumption 1 pins the first knot at exactly ω=0; validation rejects anything else
	if omegas[0] != 0 {
		return nil, fmt.Errorf("demand: first knot must be at ω=0, got %g", omegas[0])
	}
	last := len(omegas) - 1
	//pubopt:allow(floatcmp): Assumption 1 pins the last knot at exactly ω=1
	if omegas[last] != 1 {
		return nil, fmt.Errorf("demand: last knot must be at ω=1, got %g", omegas[last])
	}
	//pubopt:allow(floatcmp): d(1)=1 is an exact normalization requirement, not a numeric coincidence
	if levels[last] != 1 {
		return nil, fmt.Errorf("demand: d(1) must be 1, got %g", levels[last])
	}
	for i := 1; i < len(omegas); i++ {
		if omegas[i] <= omegas[i-1] {
			return nil, fmt.Errorf("demand: knot abscissae must be strictly increasing at index %d", i)
		}
		if levels[i] < levels[i-1] {
			return nil, fmt.Errorf("demand: demand levels must be non-decreasing at index %d", i)
		}
	}
	for i, l := range levels {
		if l < 0 || l > 1 {
			return nil, fmt.Errorf("demand: level %g at knot %d outside [0,1]", l, i)
		}
	}
	return &Piecewise{
		omegas: append([]float64(nil), omegas...),
		levels: append([]float64(nil), levels...),
	}, nil
}

// At implements Curve.
func (p *Piecewise) At(omega float64) float64 {
	if omega <= 0 {
		return p.levels[0]
	}
	if omega >= 1 {
		return 1
	}
	// Linear scan: knot counts are tiny (a handful) so binary search would
	// be slower in practice.
	for i := 1; i < len(p.omegas); i++ {
		if omega <= p.omegas[i] {
			t := (omega - p.omegas[i-1]) / (p.omegas[i] - p.omegas[i-1])
			return p.levels[i-1] + t*(p.levels[i]-p.levels[i-1])
		}
	}
	return 1
}

// Name implements Curve.
func (p *Piecewise) Name() string { return fmt.Sprintf("piecewise(%d knots)", len(p.omegas)) }
