package core

import (
	"fmt"
	"math"
	"sync"

	"github.com/netecon-sim/publicoption/internal/numeric"
	"github.com/netecon-sim/publicoption/internal/traffic"
)

// MarketOutcome is an equilibrium of the second-stage multi-ISP game
// (M, µ, N, s_I) under Assumption 5: consumers have migrated until the
// per-capita consumer surplus is equal across every ISP holding consumers.
type MarketOutcome struct {
	ISPs   []ISP
	NuBar  float64 // system per-capita capacity ν = µ/M
	Shares []float64
	// Eqs[k] is the CP class equilibrium at ISP k given its equilibrium
	// per-capita capacity ν_k = γ_k·ν̄ / m_k.
	Eqs []*ClassEquilibrium
	// Phi is the equalized per-capita consumer surplus (the surplus every
	// consumer experiences in equilibrium).
	Phi float64
}

// Share returns the market share of the ISP with the given name, or NaN.
func (o *MarketOutcome) Share(name string) float64 {
	for k := range o.ISPs {
		if o.ISPs[k].Name == name {
			return o.Shares[k]
		}
	}
	return math.NaN()
}

// Eq returns the class equilibrium of the named ISP, or nil.
func (o *MarketOutcome) Eq(name string) *ClassEquilibrium {
	for k := range o.ISPs {
		if o.ISPs[k].Name == name {
			return o.Eqs[k]
		}
	}
	return nil
}

// String summarizes the outcome.
func (o *MarketOutcome) String() string {
	s := fmt.Sprintf("market(ν̄=%g, Φ=%.4g", o.NuBar, o.Phi)
	for k := range o.ISPs {
		s += fmt.Sprintf(", %s: m=%.4f", o.ISPs[k].Name, o.Shares[k])
	}
	return s + ")"
}

// minShare bounds market shares away from 0 and 1 in the bisections: an ISP
// with vanishing share has per-capita capacity γν̄/m → ∞, where its surplus
// has already saturated at MaxPhi, so nothing changes below this floor.
const minShare = 1e-9

// Market solves consumer-migration equilibria for a fixed population and
// system capacity. It caches per-ISP surplus evaluations through warm
// starts; create one Market per (pop, ν̄) study. The warm partitions are
// per ISP, but the solver's kernels are shared by every ISP in the market:
// each ISP's ordinary class is solved on one kernel and its premium class
// on the other, so consecutive games of different ISPs warm-start from
// each other's levels. (A zero-capacity class leaves a kernel's warm
// state alone, so a κ = 1 incumbent's empty ordinary class does not cost
// the Public Option's full-population class its warm start.)
type Market struct {
	Solver *Solver
	Pop    traffic.Population
	NuBar  float64
	// MigrationTol is the absolute market-share tolerance of the consumer
	// migration bisection (Assumption 5). The default 1e-8 resolves shares
	// far beyond anything the experiments read; loosen it for speed in
	// large sweeps.
	MigrationTol float64
	warm         map[string][]bool // per-ISP warm-start partitions
}

// NewMarket returns a market solver (nil solver for defaults).
func NewMarket(s *Solver, pop traffic.Population, nuBar float64) *Market {
	if s == nil {
		s = NewSolver(nil)
	}
	if nuBar < 0 || math.IsNaN(nuBar) {
		panic(fmt.Sprintf("core: market with ν̄=%g", nuBar))
	}
	return &Market{Solver: s, Pop: pop, NuBar: nuBar, MigrationTol: 1e-8, warm: make(map[string][]bool)}
}

// Reset forgets every per-ISP warm partition and the solver's warm kernel
// state, keeping their buffers: the next solve returns bit for bit what a
// fresh market with the same settings returns.
func (mk *Market) Reset() {
	for name, in := range mk.warm { //pubopt:allow(detrand): truncating every entry is order-independent
		mk.warm[name] = in[:0]
	}
	mk.Solver.Reset()
}

// eqAtShare returns the class equilibrium ISP isp reaches when it holds
// market share m, warm-started from the ISP's previous evaluation. The
// result is the solver's pooled equilibrium, valid until its next call:
// the migration search and the share curves read one value from each
// evaluation and drop it, and an outcome Clones the equilibria it keeps.
func (mk *Market) eqAtShare(isp ISP, m float64) *ClassEquilibrium {
	eq := mk.Solver.CompetitiveScratch(isp.Strategy, mk.nuAtShare(isp, m), mk.Pop, mk.warm[isp.Name])
	mk.warm[isp.Name] = append(mk.warm[isp.Name][:0], eq.InPremium...)
	return eq
}

// nuAtShare is the per-capita capacity γν̄/m of ISP isp at market share m.
func (mk *Market) nuAtShare(isp ISP, m float64) float64 {
	if m < minShare {
		m = minShare
	}
	nu := isp.Gamma * mk.NuBar / m
	// Far beyond saturation the surplus is constant, so cap ν to keep the
	// class solver finite as m → 0. The cap must be generous: a two-class
	// ISP's surplus keeps growing until its *ordinary class alone* covers
	// the population's unconstrained demand, i.e. up to sat/(1−κ); 10⁴·sat
	// covers every κ ≤ 0.9999.
	if sat := mk.Pop.TotalUnconstrainedPerCapita(); nu > 1e4*sat {
		nu = 1e4 * sat
	}
	return nu
}

// SolveDuopoly computes the migration equilibrium of two ISPs by direct
// bisection on ISP a's market share for a sign change of the gap
// Φ_a(m) − Φ_b(1−m) (see migrate for which one it selects: the gap is not
// monotone in general). Boundary cases clamp: if even an infinitesimal
// share of consumers at a experiences less surplus than b provides to
// everyone, a's share is 0 (the paper's c_I = 1 corner where "all consumers
// move to ISP J").
func (mk *Market) SolveDuopoly(a, b ISP) *MarketOutcome {
	m := mk.migrate(a, b, func(_ ISP, eq *ClassEquilibrium) float64 { return eq.Phi() })
	return &MarketOutcome{
		ISPs:   []ISP{a, b},
		NuBar:  mk.NuBar,
		Shares: m.shares,
		Eqs:    []*ClassEquilibrium{m.eqA, m.eqB},
		Phi:    m.level,
	}
}

// migration is the outcome of the two-ISP migration search.
type migration struct {
	shares   []float64
	level    float64 // the equalized per-ISP value
	eqA, eqB *ClassEquilibrium
}

// migrate is the one two-ISP migration search: it finds a share m of ISP
// a at which the per-ISP values of the class equilibria at shares m and
// 1−m equalize (Assumption 5 on the value consumers weigh — Φ, or Φ + σ·Ψ
// under rebates).
//
// Theorem 2 (via ν_a = γ_a·ν̄/m) suggests the gap falls in m, but the class
// game jumps: when CPs switch classes the value can move against the
// trend, so the gap is not monotone and can change sign more than once.
// (On fig8-c02's 120-CP parity ensemble it changes sign three times within
// 0.0075 of share; see TestMigrationGapNotMonotone in internal/scenario.)
// The search is numeric.BisectDecreasing on [minShare, 1−minShare], so the
// selected equilibrium is the sign change its midpoint sequence reaches; a
// different search could select a different one.
//
// The gap evaluations and the plateau test discard their equilibria and
// run on the solver's pooled one; only the two final equilibria are
// retained.
func (mk *Market) migrate(a, b ISP, value func(isp ISP, eq *ClassEquilibrium) float64) migration {
	for _, isp := range []ISP{a, b} {
		if err := isp.Validate(); err != nil {
			panic(err)
		}
	}
	if a.Name == b.Name {
		panic("core: duopoly ISPs must have distinct names")
	}
	if math.Abs(a.Gamma+b.Gamma-1) > 1e-9 {
		panic(fmt.Sprintf("core: duopoly capacity shares must sum to 1, got %g", a.Gamma+b.Gamma))
	}
	// Each value is read before the next evaluation reuses the pooled
	// equilibrium.
	gap := func(m float64) float64 {
		va := value(a, mk.eqAtShare(a, m))
		vb := value(b, mk.eqAtShare(b, 1-m))
		return va - vb
	}
	tol := mk.MigrationTol
	if tol <= 0 {
		tol = 1e-8
	}
	// Equilibrium selection on indifference plateaus: when both ISPs
	// already deliver equal value at the capacity-proportional split
	// (typically because capacity is abundant and both saturate), every
	// split is an equilibrium of Assumption 5 — there is no migration
	// pressure at all. Select the capacity-proportional point, consistent
	// with Lemma 4's homogeneous-strategy equilibrium; otherwise bisect.
	var m float64
	vGA := value(a, mk.eqAtShare(a, a.Gamma))
	vGB := value(b, mk.eqAtShare(b, b.Gamma))
	if math.Abs(vGA-vGB) <= 1e-9*math.Max(math.Max(vGA, vGB), 1) {
		m = a.Gamma
	} else {
		m = numeric.BisectDecreasing(gap, minShare, 1-minShare, tol)
	}
	eqA := mk.eqAtShare(a, m).Clone()
	eqB := mk.eqAtShare(b, 1-m).Clone()
	va, vb := value(a, eqA), value(b, eqB)
	// The equalized level; at a clamped boundary the market level is the
	// value of the ISP serving (essentially) everyone.
	out := migration{shares: []float64{m, 1 - m}, level: math.Max(va, vb), eqA: eqA, eqB: eqB}
	if m <= 2*minShare {
		out.shares = []float64{0, 1}
		out.level = vb
	} else if m >= 1-2*minShare {
		out.shares = []float64{1, 0}
		out.level = va
	}
	return out
}

// shareCurvePoints is the resolution of the per-ISP share→surplus curves
// SolveMarket precomputes.
const shareCurvePoints = 96

// SolveMarket computes the migration equilibrium for any number of ISPs by
// surplus-level equalization: it precomputes each ISP's (non-increasing)
// surplus-vs-share curve Φ_k(m), then bisects on the common surplus level
// Φ* for Σ_k m_k(Φ*) = 1, where m_k(Φ*) is the largest share at which ISP k
// still delivers Φ*. ISPs whose best achievable surplus is below Φ* hold no
// consumers. Shares are finally renormalized to absorb interpolation error.
//
// Capacity shares must sum to 1 (within tolerance). The outcome keeps its
// own copy of isps. For two ISPs, SolveDuopoly is exact and faster.
func (mk *Market) SolveMarket(isps []ISP) *MarketOutcome {
	if len(isps) == 0 {
		panic("core: SolveMarket needs at least one ISP")
	}
	var gammaSum float64
	names := make(map[string]bool, len(isps))
	for _, isp := range isps {
		if err := isp.Validate(); err != nil {
			panic(err)
		}
		if names[isp.Name] {
			panic("core: ISPs must have distinct names, duplicate " + isp.Name)
		}
		names[isp.Name] = true
		gammaSum += isp.Gamma
	}
	if math.Abs(gammaSum-1) > 1e-9 {
		panic(fmt.Sprintf("core: capacity shares must sum to 1, got %g", gammaSum))
	}
	if len(isps) == 1 {
		eq := mk.eqAtShare(isps[0], 1).Clone()
		return &MarketOutcome{ISPs: []ISP{isps[0]}, NuBar: mk.NuBar, Shares: []float64{1}, Eqs: []*ClassEquilibrium{eq}, Phi: eq.Phi()}
	}

	// Precompute Φ_k over a share grid, dense near zero where the curve
	// moves fastest (ν_k = γ_k·ν̄/m).
	grid := shareGrid()
	phiCurves := make([][]float64, len(isps))
	var phiMax float64
	for k, isp := range isps {
		curve := make([]float64, len(grid))
		for j, m := range grid {
			curve[j] = mk.eqAtShare(isp, m).Phi()
		}
		// Enforce monotone non-increasing in m (solver noise and class-jump
		// discontinuities can wiggle): take the running max from the right,
		// which is the correct upper envelope for share inversion.
		for j := len(curve) - 2; j >= 0; j-- {
			if curve[j] < curve[j+1] {
				curve[j] = curve[j+1]
			}
		}
		phiCurves[k] = curve
		if curve[0] > phiMax {
			phiMax = curve[0]
		}
	}
	// m_k(Φ*): largest share with Φ_k(m) >= Φ*.
	shareAt := func(k int, phiStar float64) float64 {
		curve := phiCurves[k]
		if phiStar > curve[0] {
			return 0 // cannot deliver this surplus at any share
		}
		if phiStar <= curve[len(curve)-1] {
			return 1 // delivers it even serving everyone
		}
		// Binary search the first grid index with Φ < Φ*, then invert
		// linearly inside the bracketing cell.
		lo, hi := 0, len(curve)-1
		for hi-lo > 1 {
			mid := (lo + hi) / 2
			if curve[mid] >= phiStar {
				lo = mid
			} else {
				hi = mid
			}
		}
		// A (near-)flat bracketing cell means the curve saturates there
		// and the inversion below is ill-conditioned; snap to the cell's
		// right edge instead of dividing by a vanishing difference.
		if numeric.AlmostEqual(curve[lo], curve[hi], numeric.DefaultTol) {
			return grid[hi]
		}
		t := (curve[lo] - phiStar) / (curve[lo] - curve[hi])
		return grid[lo] + t*(grid[hi]-grid[lo])
	}
	total := func(phiStar float64) float64 {
		var s float64
		for k := range isps {
			s += shareAt(k, phiStar)
		}
		return s
	}
	// Σ m_k(Φ*) is non-increasing in Φ*; find Σ = 1.
	phiStar := numeric.BisectDecreasing(func(p float64) float64 { return total(p) - 1 }, 0, phiMax, 1e-12*math.Max(phiMax, 1))

	out := &MarketOutcome{ISPs: append([]ISP(nil), isps...), NuBar: mk.NuBar, Phi: phiStar}
	out.Shares = make([]float64, len(isps))
	var sum float64
	for k := range isps {
		out.Shares[k] = shareAt(k, phiStar)
		sum += out.Shares[k]
	}
	if sum > 0 {
		for k := range out.Shares {
			out.Shares[k] /= sum
		}
	}
	out.Eqs = make([]*ClassEquilibrium, len(isps))
	for k, isp := range isps {
		out.Eqs[k] = mk.eqAtShare(isp, math.Max(out.Shares[k], minShare)).Clone()
	}
	return out
}

// shareGrid returns the market-share sample points for SolveMarket:
// geometric spacing below 0.1 (where ν and hence Φ change fastest) and
// linear spacing above. The grid is deterministic, so it is built once and
// shared; callers must treat it as read-only.
func shareGrid() []float64 {
	shareGridOnce.Do(func() {
		var grid []float64
		m := 1e-4
		for m < 0.1 {
			grid = append(grid, m)
			m *= 1.35
		}
		for _, m := range numeric.Linspace(0.1, 1, shareCurvePoints-len(grid)) {
			grid = append(grid, m)
		}
		shareGridCache = grid
	})
	return shareGridCache
}

var (
	shareGridOnce  sync.Once
	shareGridCache []float64
)
