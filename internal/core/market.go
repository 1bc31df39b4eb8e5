package core

import (
	"fmt"
	"math"
	"slices"

	"github.com/netecon-sim/publicoption/internal/numeric"
	"github.com/netecon-sim/publicoption/internal/traffic"
)

// MarketOutcome is an equilibrium of the second-stage multi-ISP game
// (M, µ, N, s_I) under Assumption 5: consumers have migrated until the
// per-capita consumer surplus is equal across every ISP holding consumers.
//
// An outcome owns its buffers: its slices and equilibria share nothing
// with the market or solver that produced it. Market.SolveInto reuses
// them, overwriting every field, so a caller that keeps an equilibrium
// past the next SolveInto on the same outcome copies it first
// (ClassEquilibrium.Clone).
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
	// MigrationTol is the absolute market-share tolerance of each nested
	// consumer-migration bisection (Assumption 5). The default 1e-8
	// resolves shares far beyond anything the experiments read; loosen it
	// for speed in large sweeps.
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
// the migration search reads one value from each evaluation and drops it,
// and equalize copies the equilibria an outcome keeps into the outcome's
// own buffers.
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

// MaxISPs is the largest market Solve accepts. The migration search nests
// one search per ISP after the first. A level holding an interior-κ ISP
// bisects, some 26 steps at MigrationTol 1e-7, so K ISPs whose strategies
// differ cost about 26^(K−1) class games when every level holds one: some
// 17,000 at K = 4 and 460,000 at K = 5. A level of κ = 0 and κ = 1 ISPs
// takes the secant search, about 6 steps.
const MaxISPs = 4

// valueFunc is the per-subscriber value consumers weigh when they choose
// an ISP: Φ, or Φ + σ·Ψ under rebates.
type valueFunc func(isp ISP, eq *ClassEquilibrium) float64

func surplus(_ ISP, eq *ClassEquilibrium) float64 { return eq.Phi() }

// Solve computes the migration equilibrium of 1 ≤ K ≤ MaxISPs ISPs whose
// capacity shares sum to 1: the shares at which the per-capita surplus Φ
// is equal at every ISP holding consumers (Assumption 5). Boundary cases
// clamp: if even an infinitesimal share of consumers at an ISP experiences
// less surplus than the others provide, its share is 0 (the paper's
// c_I = 1 corner where "all consumers move to ISP J"). The outcome is the
// caller's: Solve is SolveInto on a fresh outcome.
func (mk *Market) Solve(isps []ISP) *MarketOutcome {
	return mk.SolveInto(new(MarketOutcome), isps)
}

// SolveInto is Solve into out, whose ISPs, Shares and Eqs buffers (and
// each equilibrium's per-CP buffers) it reuses, and returns out. This is
// the solver's pooling contract one rung up: once out's buffers have grown
// to the market, a solve retains its equilibria without allocating, and
// the next SolveInto on out overwrites them. out keeps its own copy of
// isps; it must not be shared with another goroutine's solve.
func (mk *Market) SolveInto(out *MarketOutcome, isps []ISP) *MarketOutcome {
	return mk.solve(out, isps, surplus)
}

// SolveDuopoly is Solve on the two ISPs a and b.
func (mk *Market) SolveDuopoly(a, b ISP) *MarketOutcome {
	return mk.Solve([]ISP{a, b})
}

// solve validates isps and runs the migration search on the value
// consumers weigh, into out's buffers.
func (mk *Market) solve(out *MarketOutcome, isps []ISP, value valueFunc) *MarketOutcome {
	if len(isps) == 0 {
		panic("core: Solve needs at least one ISP")
	}
	if len(isps) > MaxISPs {
		panic(fmt.Sprintf("core: Solve takes at most MaxISPs = %d ISPs, got %d", MaxISPs, len(isps)))
	}
	var gammaSum float64
	for k, isp := range isps {
		if err := isp.Validate(); err != nil {
			panic(err)
		}
		for _, prev := range isps[:k] {
			if prev.Name == isp.Name {
				panic("core: ISPs must have distinct names, duplicate " + isp.Name)
			}
		}
		gammaSum += isp.Gamma
	}
	if math.Abs(gammaSum-1) > 1e-9 {
		panic(fmt.Sprintf("core: capacity shares must sum to 1, got %g", gammaSum))
	}
	n := len(isps)
	out.ISPs = append(out.ISPs[:0], isps...)
	out.NuBar = mk.NuBar
	out.Shares = slices.Grow(out.Shares[:0], n)[:n]
	out.Eqs = slices.Grow(out.Eqs[:0], n)[:n] // equalize fills nil entries
	out.Phi = mk.equalize(out.ISPs, 1, 1, value, out, 0)
	return out
}

// equalize is the one migration search. It splits consumer mass s among
// isps, whose capacity shares sum to gamma, until the value consumers
// weigh is equal at every ISP holding consumers, and returns that level.
// With out non-nil it also records each ISP's share in out.Shares and
// copies its class equilibrium into out.Eqs, isps[0] at index k; otherwise
// every evaluation runs on the solver's pooled equilibrium and is
// discarded.
//
// One ISP holds the whole mass. Two or more split it between the first
// ISP, holding m, and the rest, whose value at mass s−m is the same search
// on isps[1:]. Theorem 2 (via ν = γ·ν̄/m) suggests the gap between the two
// falls in m, but the class game jumps: when CPs switch classes the value
// can move against the trend, so the gap is not monotone and can change
// sign more than once. (On fig8-c02's 120-CP parity ensemble it changes
// sign three times within 0.0075 of share; see TestMigrationGapNotMonotone
// in internal/scenario.) split picks m, and the equilibrium it selects is
// always the sign change numeric.BisectDecreasing's midpoint sequence on
// [minShare, s−minShare] reaches: at a level whose ISPs all play κ = 0 or
// κ = 1 the gap is monotone and a secant search returns that same share
// in fewer class games; elsewhere split bisects. A different selection
// rule could pick a different sign change.
//
// Equilibrium selection on indifference plateaus: when the first ISP and
// the rest already deliver equal value at the capacity-proportional split
// (typically because capacity is abundant and both saturate), every split
// is an equilibrium of Assumption 5 — there is no migration pressure at
// all. The search selects the capacity-proportional point, consistent
// with Lemma 4's homogeneous-strategy equilibrium.
func (mk *Market) equalize(isps []ISP, s, gamma float64, value valueFunc, out *MarketOutcome, k int) float64 {
	a := isps[0]
	if len(isps) == 1 {
		eq := mk.eqAtShare(a, s)
		if out != nil {
			if out.Eqs[k] == nil {
				out.Eqs[k] = new(ClassEquilibrium)
			}
			out.Shares[k] = s
			eq = eq.CopyInto(out.Eqs[k])
		}
		return value(a, eq)
	}
	rest := isps[1:]
	var restGamma float64
	for _, isp := range rest {
		restGamma += isp.Gamma
	}
	m := s * a.Gamma / gamma
	vA := mk.equalize(isps[:1], m, a.Gamma, value, nil, 0)
	vR := mk.equalize(rest, s*restGamma/gamma, restGamma, value, nil, 0)
	m = mk.split(isps, s, m, vA, vR, func(m float64) float64 {
		va := mk.equalize(isps[:1], m, a.Gamma, value, nil, 0)
		return va - mk.equalize(rest, s-m, restGamma, value, nil, 0)
	})
	vA = mk.equalize(isps[:1], m, a.Gamma, value, out, k)
	vR = mk.equalize(rest, s-m, restGamma, value, out, k+1)
	// The equalized level; at a clamped boundary it is the value of the
	// side serving (essentially) the whole mass. (When split gives a tiny
	// mass wholly to the first ISP, m = s may itself be below 2·minShare.)
	switch {
	case m <= 2*minShare && m < s:
		if out != nil {
			// The rest was solved at mass s−m; it holds all of s.
			out.Shares[k] = 0
			for j := k + 1; j < k+len(isps); j++ {
				out.Shares[j] = out.Shares[j] / (s - m) * s
			}
		}
		return vR
	case m >= s-2*minShare:
		if out != nil {
			out.Shares[k] = s
			clear(out.Shares[k+1 : k+len(isps)])
		}
		return vA
	}
	return math.Max(vA, vR)
}

// split returns the first ISP's share of the mass s that equalize
// divides between isps[0] and the rest. At the capacity-proportional
// share m0 the first ISP is worth vA and the rest vR; gap(m) is the
// first's value minus the rest's at share m.
//
// When consumers are indifferent at m0 the answer is m0. A mass of at
// most 4·minShare leaves both sides at most 2·minShare, where equalize's
// clamps count either as holding nothing, and saturates both: the whole
// mass goes to the side consumers value more, s or 0. (Searched, such a
// mass went to the rest's last ISP whatever the values, so a three-ISP
// market could clamp to one ISP while another offered more.) Otherwise
// the answer is the sign change of gap that numeric.BisectDecreasing on
// [minShare, s−minShare] selects. At a level whose ISPs all play κ = 0 or
// κ = 1 no CP changes class as ν moves, so by Theorem 2 the gap falls in
// m, and numeric.BisectDecreasingFrom, seeded with m0 and vA − vR,
// returns the same sign change in a fraction of the class games.
func (mk *Market) split(isps []ISP, s, m0, vA, vR float64, gap func(float64) float64) float64 {
	switch {
	case math.Abs(vA-vR) <= 1e-9*math.Max(math.Max(vA, vR), 1):
		return m0
	case s <= 4*minShare && vA > vR:
		return s
	case s <= 4*minShare:
		return 0
	}
	tol := mk.MigrationTol
	if tol <= 0 {
		tol = 1e-8
	}
	for _, isp := range isps {
		if !isp.Strategy.NoPremium() && !isp.Strategy.AllPremium() {
			return numeric.BisectDecreasing(gap, minShare, s-minShare, tol)
		}
	}
	return numeric.BisectDecreasingFrom(gap, minShare, s-minShare, m0, vA-vR, tol)
}
