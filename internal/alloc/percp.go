package alloc

import (
	"math"

	"github.com/netecon-sim/publicoption/internal/numeric"
	"github.com/netecon-sim/publicoption/internal/traffic"
)

// PerCPMaxMin equalizes aggregate per-capita rates across content providers
// rather than per-user rates across flows: the mechanism water-fills the
// quantities y_i = α_i·d_i(θ_i)·θ_i instead of the θ_i themselves.
//
// This is what a naive "every CP gets an equal pipe" peering policy would
// produce, and it is deliberately different from the paper's per-user
// max-min: a CP with a tiny user base (small α) is dramatically favored per
// user. The mechanism still satisfies Axioms 1–4, so every theorem of §II
// applies to it; the ablation benchmarks use it to show how much the
// *choice* of neutral mechanism matters even before any pricing enters.
//
// In level form: at level ℓ, CP i's aggregate per-capita rate is
// y_i(ℓ) = min(ℓ, α_i·θ̂_i), and θ_i is the smallest solution of
// α_i·d_i(θ)·θ = y_i(ℓ), found by inner bisection (the map is continuous
// and non-decreasing with range [0, α_i·θ̂_i], so a solution exists).
type PerCPMaxMin struct{}

// RateAt implements Allocator.
//
//pubopt:hotpath
func (PerCPMaxMin) RateAt(level float64, cp *traffic.CP) float64 {
	if level <= 0 {
		return 0
	}
	target := math.Min(level, cp.Alpha*cp.ThetaHat)
	if target >= cp.Alpha*cp.ThetaHat {
		return cp.ThetaHat
	}
	// Invert θ ↦ α·d(θ)·θ at target. The function is non-decreasing and
	// continuous (Assumption 1), hitting target somewhere in [0, θ̂].
	//pubopt:allow(hotpathalloc): bisection callback closure; the kernel inverts once per CP when it reads a solve's final rates, never per root-search evaluation
	f := func(theta float64) float64 { return cp.PerCapitaRate(theta) - target }
	return numeric.Bisect(f, 0, cp.ThetaHat, 1e-12*cp.ThetaHat)
}

// LevelHi implements Allocator.
func (PerCPMaxMin) LevelHi(pop traffic.Population) float64 {
	var hi float64
	for i := range pop {
		if r := pop[i].UnconstrainedPerCapitaRate(); r > hi {
			hi = r
		}
	}
	return hi
}

// Name implements Allocator.
func (PerCPMaxMin) Name() string { return "percp-maxmin" }

// flatten implements flattener. The aggregate needs no inner inversion at
// all: by construction CP i's aggregate per-capita rate at level ℓ is
// exactly y_i(ℓ) = min(ℓ, α_i·θ̂_i) — the water-filled quantity itself —
// which is the flattened sum with unit gain and weight, cap α_i·θ̂_i and
// constant demand. The root search is a plain O(n) sum per evaluation;
// only the final rates pay for the θ inversions, once, through RateAt.
//
//pubopt:hotpath
func (PerCPMaxMin) flatten(w *Workspace, pop traffic.Population) (hi float64, linear bool) {
	for i := range pop {
		c := pop[i].UnconstrainedPerCapitaRate()
		w.gain[i], w.weight[i], w.ceil[i] = 1, 1, c
		w.dkind[i], w.dparam[i] = dConstant, 0
		if c > hi {
			hi = c
		}
	}
	return hi, false
}
