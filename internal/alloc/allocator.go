// Package alloc implements the rate-allocation side of the Ma–Misra model
// (§II-B, §II-C): rate-allocation mechanisms satisfying the paper's Axioms
// 1–4, and the rate-equilibrium solver of Theorem 1 that couples a mechanism
// with the content providers' demand functions.
//
// # Mechanisms as level maps
//
// Every mechanism here is expressed through a scalar operating level: the
// mechanism grants CP i the per-user throughput RateAt(level, i), which is
// continuous and non-decreasing in the level and clamped to [0, θ̂_i]
// (Axiom 1). For the paper's max-min fair mechanism the level is literally
// the water level τ with θ_i = min(θ̂_i, τ); for weighted α-fair mechanisms
// it is a monotone transform of the KKT shadow price of the capacity
// constraint. Work conservation (Axiom 2) then pins the level down: the
// solver bisects on it until the aggregate per-capita rate equals
// min(ν, Σ α_i θ̂_i). Monotonicity in capacity (Axiom 3) follows because a
// larger ν moves the level up, and scale independence (Axiom 4) is built in
// by formulating everything per capita (ν = µ/M).
//
// This "level" formulation is not a restriction in practice — it covers the
// whole Mo–Walrand α-fair family the paper appeals to (§II-D.2) — and it is
// what makes Theorem 1 constructive: the aggregate rate is a continuous
// non-decreasing function of a single scalar, so the equilibrium is a
// bisection away.
package alloc

import (
	"math"
	"strconv"

	"github.com/netecon-sim/publicoption/internal/traffic"
)

// Allocator is a rate-allocation mechanism (Definition 1 of the paper) in
// level form.
//
// Implementations must guarantee, for every valid CP:
//   - RateAt(level, cp) is continuous and non-decreasing in level;
//   - RateAt(level, cp) = 0 for every level ≤ 0, and
//     RateAt(level, cp) ∈ [0, cp.ThetaHat] (Axiom 1). Workspace.Solve at
//     ν = 0 and the class game's κ = 1 shortcut rely on the zero level
//     granting nothing: they return rate 0 without calling RateAt;
//   - RateAt(LevelHi(pop), cp) = cp.ThetaHat for every cp in pop, so the
//     solver's bisection interval [0, LevelHi] always brackets the
//     work-conserving level.
type Allocator interface {
	// RateAt returns the per-user achievable throughput θ_i granted to cp at
	// the given operating level.
	RateAt(level float64, cp *traffic.CP) float64
	// LevelHi returns a level at which every CP in pop is unconstrained.
	LevelHi(pop traffic.Population) float64
	// Name identifies the mechanism in diagnostics and rendered output.
	Name() string
}

// MaxMin is the paper's default mechanism: per-user max-min fairness, the
// first-order model of TCP's AIMD bandwidth sharing (§II-D.2, citing
// Chiu–Jain and Mo–Walrand). Every active user receives the common water
// level τ, capped by their CP's unconstrained throughput:
//
//	θ_i = min(θ̂_i, τ)
type MaxMin struct{}

// RateAt implements Allocator.
func (MaxMin) RateAt(level float64, cp *traffic.CP) float64 {
	if level <= 0 {
		return 0
	}
	return math.Min(level, cp.ThetaHat)
}

// LevelHi implements Allocator.
func (MaxMin) LevelHi(pop traffic.Population) float64 { return pop.MaxThetaHat() }

// Name implements Allocator.
func (MaxMin) Name() string { return "maxmin" }

// flatten implements flattener: max-min is the unit-gain water fill.
//
//pubopt:hotpath
func (MaxMin) flatten(w *Workspace, pop traffic.Population) (hi float64, linear bool) {
	for i := range pop {
		w.gain[i] = 1
		if pop[i].ThetaHat > hi {
			hi = pop[i].ThetaHat
		}
	}
	w.flattenCPs(pop)
	return hi, true
}

// WeightFunc assigns a positive fairness weight to a CP. Weights model
// per-flow asymmetries that TCP exhibits in practice — shorter RTTs and
// larger receive windows grab proportionally more bandwidth (§II-D.2:
// "differing round trip times ... can result in different bandwidths").
type WeightFunc func(*traffic.CP) float64

// UnitWeights gives every CP weight 1 (the symmetric case).
func UnitWeights(*traffic.CP) float64 { return 1 }

// WeightByThetaHat weights a CP by its unconstrained throughput, modelling
// transport stacks tuned to the application's bandwidth appetite.
func WeightByThetaHat(cp *traffic.CP) float64 { return cp.ThetaHat }

// AlphaFair is the Mo–Walrand weighted α-proportionally-fair mechanism. The
// solution of
//
//	max Σ_i n_i w_i x_i^(1−α)/(1−α)   s.t.  Σ_i n_i x_i ≤ µ, 0 ≤ x_i ≤ θ̂_i
//
// has the KKT form x_i = min(θ̂_i, (w_i/p)^(1/α)) for the shadow price p of
// the capacity constraint. Substituting level = p^(−1/α) gives the level
// form x_i = min(θ̂_i, w_i^(1/α)·level). α = 1 is weighted proportional
// fairness; α → ∞ recovers max-min (the weight exponent vanishes).
//
// Alpha must be positive; a nil Weights uses UnitWeights, under which every
// α yields exactly the max-min allocation (all flows share one water level).
type AlphaFair struct {
	Alpha   float64
	Weights WeightFunc
}

func (a AlphaFair) weight(cp *traffic.CP) float64 {
	w := 1.0
	if a.Weights != nil {
		w = a.Weights(cp)
	}
	if w <= 0 || math.IsNaN(w) || math.IsInf(w, 0) {
		panic("alloc: AlphaFair weights must be positive and finite")
	}
	return w
}

func (a AlphaFair) exponent() float64 {
	if !(a.Alpha > 0) {
		panic("alloc: AlphaFair requires Alpha > 0")
	}
	return 1 / a.Alpha
}

// RateAt implements Allocator.
func (a AlphaFair) RateAt(level float64, cp *traffic.CP) float64 {
	if level <= 0 {
		return 0
	}
	x := math.Pow(a.weight(cp), a.exponent()) * level
	return math.Min(x, cp.ThetaHat)
}

// LevelHi implements Allocator.
func (a AlphaFair) LevelHi(pop traffic.Population) float64 {
	exp := a.exponent()
	var hi float64
	for i := range pop {
		need := pop[i].ThetaHat / math.Pow(a.weight(&pop[i]), exp)
		if need > hi {
			hi = need
		}
	}
	return hi
}

// flatten implements flattener: g_i = w_i^(1/α), the KKT gain of the
// weighted α-fair level form. Weight validation (positivity) happens here,
// exactly as in RateAt.
//
//pubopt:hotpath
func (a AlphaFair) flatten(w *Workspace, pop traffic.Population) (hi float64, linear bool) {
	exp := a.exponent()
	for i := range pop {
		g := math.Pow(a.weight(&pop[i]), exp)
		w.gain[i] = g
		if need := pop[i].ThetaHat / g; need > hi {
			hi = need
		}
	}
	w.flattenCPs(pop)
	return hi, true
}

// Name implements Allocator.
func (a AlphaFair) Name() string {
	name := "alphafair(α=" + strconv.FormatFloat(a.Alpha, 'g', -1, 64)
	if a.Weights != nil {
		name += ",weighted"
	}
	return name + ")"
}
