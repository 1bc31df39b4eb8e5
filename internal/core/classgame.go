package core

import (
	"bytes"
	"fmt"
	"math"
	"slices"

	"github.com/netecon-sim/publicoption/internal/alloc"
	"github.com/netecon-sim/publicoption/internal/econ"
	"github.com/netecon-sim/publicoption/internal/obs"
	"github.com/netecon-sim/publicoption/internal/traffic"
)

// Solver computes CP class-choice equilibria. The zero value is not usable;
// construct with NewSolver. Alloc must not be mutated: NewSolver binds the
// solver's reusable equilibrium workspaces to it.
//
// A Solver owns warm-started alloc.Workspace kernels (one per class, one
// for post-join verification) plus the split/join scratch buffers of the
// competitive dynamics, so repeated solves — price grids, capacity sweeps,
// migration bisections — run without per-iteration allocation. It is not
// safe for concurrent use; sweeps create one Solver per worker.
//
// # Pooling contract
//
// CompetitiveScratch returns the solver's own ClassEquilibrium: its
// partition, θ profile and intra-class results live in solver buffers and
// are valid only until the next call on the solver. It serves the games
// whose equilibrium is read once and discarded (the migration search's
// gap evaluations, policy objectives). CompetitiveFrom runs
// the same game and returns a Clone, which the caller owns, and
// ClassEquilibrium.CopyInto copies a pooled equilibrium into buffers the
// caller reuses. This is the alloc.Workspace contract one rung up;
// Market.SolveInto carries it one rung further.
type Solver struct {
	Alloc   alloc.Allocator
	MaxIter int // iteration budget for the competitive fixed point
	// EpsUtil is the relative utility-indifference band: a CP switches
	// classes only when the switch gains more than EpsUtil times its utility
	// scale. CPs inside the band are treated as indifferent, which is what
	// terminates the discrete dynamics at marginal CPs. The solver widens
	// the band automatically (reported in ClassEquilibrium.EpsUsed) if
	// best-gain dynamics still cycle.
	EpsUtil float64

	// Equilibrium kernels: one warm level per class (the ordinary and
	// premium levels evolve separately along the dynamics) and one for
	// post-join counterfactuals.
	wsO, wsP, wsJoin *alloc.Workspace
	// leveledO and leveledP are the class results of the last levels call,
	// still on the game's current partition while leveled is set: the
	// dynamics stop only when no CP moves, so finalize reuses them instead
	// of solving both classes again. begin clears leveled, and within a
	// class game only levels and finalize solve on wsO and wsP.
	leveledO, leveledP *alloc.Result
	leveled            bool
	// Scratch: class partitions, the members∪{cp} join buffer, the
	// visited-partition set of the cycle detector, the screened movers and
	// the pooled equilibrium CompetitiveScratch returns.
	ordBuf, premBuf traffic.Population
	joinBuf         traffic.Population
	seen            partitionSet
	movers          []mover
	eq              ClassEquilibrium
	// cycles counts partition-cycle restarts across the solver's lifetime:
	// phase-1 mover-cap halvings and phase-2 indifference-band widenings.
	// Surfaced through Stats alongside the kernels' counters.
	cycles uint64
}

// NewSolver returns a Solver using mechanism a (nil means the paper's
// max-min mechanism) with default iteration budget and tolerance.
func NewSolver(a alloc.Allocator) *Solver {
	if a == nil {
		a = alloc.MaxMin{}
	}
	return &Solver{
		Alloc: a, MaxIter: 600, EpsUtil: 1e-9,
		wsO: alloc.NewWorkspace(a), wsP: alloc.NewWorkspace(a), wsJoin: alloc.NewWorkspace(a),
	}
}

// Stats returns the solver's cumulative telemetry: the summed counters of
// its three equilibrium kernels plus the class-dynamics cycle restarts.
// Like the kernels themselves, the counters are single-goroutine state;
// callers aggregating across workers go through an obs.Counters sink.
func (s *Solver) Stats() obs.SolveStats {
	var st obs.SolveStats
	st.Accumulate(s.wsO.Stats())
	st.Accumulate(s.wsP.Stats())
	st.Accumulate(s.wsJoin.Stats())
	st.CycleRestarts += s.cycles
	return st
}

// Reset drops the warm state of the solver's three kernels, keeping their
// buffers and telemetry: the next game solves bit for bit as on a fresh
// solver.
func (s *Solver) Reset() {
	s.wsO.Reset()
	s.wsP.Reset()
	s.wsJoin.Reset()
}

// splitScratch partitions pop by membership flags into the solver's
// reusable class buffers, preserving order. The returned slices alias the
// scratch and are valid until the next splitScratch call; equilibria that
// outlive it are copied (ClassEquilibrium.CopyInto).
func (s *Solver) splitScratch(pop traffic.Population, premium []bool) (ordinary, prem traffic.Population) {
	s.ordBuf = s.ordBuf[:0]
	s.premBuf = s.premBuf[:0]
	for i := range pop {
		if premium[i] {
			s.premBuf = append(s.premBuf, pop[i])
		} else {
			s.ordBuf = append(s.ordBuf, pop[i])
		}
	}
	return s.ordBuf, s.premBuf
}

// ClassEquilibrium is the outcome of the CP simultaneous-move game at one
// ISP under strategy s = (κ, c) on per-capita capacity ν: a partition of the
// CPs into the ordinary and premium classes together with the rate
// equilibria inside each class.
type ClassEquilibrium struct {
	Strategy Strategy
	Nu       float64            // the ISP's per-capita capacity ν_I
	Pop      traffic.Population // full CP population (index space for InPremium/Theta)
	// InPremium[i] reports whether CP i joined the premium class.
	InPremium []bool
	// Theta[i] is CP i's equilibrium per-user throughput in its class.
	Theta []float64
	// Ordinary and Premium are the intra-class rate equilibria. Their Pop
	// fields are the class sub-populations in original order.
	Ordinary, Premium *alloc.Result
	// Converged is false when the competitive fixed point hit its iteration
	// budget without stabilizing (the returned state is the final iterate).
	Converged bool
	// Iterations is the number of fixed-point iterations performed.
	Iterations int
	// EpsUsed is the relative utility-indifference band the equilibrium was
	// accepted at (≥ the solver's EpsUtil; larger if dynamics forced the
	// band to widen). Every CP's class choice is optimal up to EpsUsed times
	// its utility scale.
	EpsUsed float64
}

// Clone returns a deep copy of the equilibrium, detached from the solver
// that produced it: the partition, the θ profile and both intra-class
// results are copied. The full population is shared, as the solver never
// writes it.
func (e *ClassEquilibrium) Clone() *ClassEquilibrium { return e.CopyInto(new(ClassEquilibrium)) }

// CopyInto makes dst a deep copy of e, as Clone does, and returns dst. It
// reuses dst's partition and θ buffers and its two intra-class results, so
// once they have grown, retaining an equilibrium allocates nothing. dst
// must not share buffers with e or with any solver.
func (e *ClassEquilibrium) CopyInto(dst *ClassEquilibrium) *ClassEquilibrium {
	inPremium, theta, ord, prem := dst.InPremium, dst.Theta, dst.Ordinary, dst.Premium
	if ord == nil {
		ord = new(alloc.Result)
	}
	if prem == nil {
		prem = new(alloc.Result)
	}
	*dst = *e
	dst.InPremium = append(inPremium[:0], e.InPremium...)
	dst.Theta = append(theta[:0], e.Theta...)
	dst.Ordinary = e.Ordinary.CopyInto(ord)
	dst.Premium = e.Premium.CopyInto(prem)
	return dst
}

// PremiumCount returns the number of premium CPs.
func (e *ClassEquilibrium) PremiumCount() int {
	n := 0
	for _, p := range e.InPremium {
		if p {
			n++
		}
	}
	return n
}

// Phi returns the per-capita consumer surplus of the two-class system:
// Φ((1−κ)ν, O) + Φ(κν, P) (§III-D).
func (e *ClassEquilibrium) Phi() float64 {
	return econ.Phi(e.Ordinary) + econ.Phi(e.Premium)
}

// Psi returns the per-capita ISP surplus Ψ = c·λ_P/M (§III-A).
func (e *ClassEquilibrium) Psi() float64 {
	return econ.Revenue(e.Premium, e.Strategy.C)
}

// Utilization returns total carried traffic divided by ν (1 when ν = 0).
func (e *ClassEquilibrium) Utilization() float64 {
	if e.Nu <= 0 {
		return 1
	}
	return (e.Ordinary.Aggregate() + e.Premium.Aggregate()) / e.Nu
}

// String summarizes the equilibrium.
func (e *ClassEquilibrium) String() string {
	return fmt.Sprintf("classeq(s=%v, ν=%g, premium=%d/%d, Φ=%.4g, Ψ=%.4g, converged=%t)",
		e.Strategy, e.Nu, e.PremiumCount(), len(e.Pop), e.Phi(), e.Psi(), e.Converged)
}

// classLevel returns the operating level a class advertises to prospective
// members under the throughput-taking screening estimate.
//
// A congested class advertises its true water level — exactly the paper's
// max-min estimate θ̃ = min(θ̂, θ_N). A class with spare capacity (empty, or
// unconstrained members) advertises the unconstrained level of the full
// population: its own members' level would understate what an outsider with
// a larger θ̂ could draw from the spare capacity. The screening estimate
// only needs to be an upper bound on the true post-join value, because every
// candidate move is verified against the exact post-join level before being
// taken. A class with zero capacity advertises nothing. hiFull is the
// unconstrained level of the full population (precomputed once per solve).
func (s *Solver) classLevel(res *alloc.Result, capacity, hiFull float64) float64 {
	if len(res.Pop) > 0 && res.Constrained {
		return res.Level
	}
	if capacity > 0 {
		return hiFull
	}
	return 0
}

// postJoinTheta returns the per-user throughput CP cp would actually get if
// it joined the class currently holding members (with the given capacity):
// the rate equilibrium of members ∪ {cp}. This is the paper's Assumption 3
// with a rational-expectations (exact ex-post) estimator. The joined
// population lives in the solver's reusable join buffer, and the solve runs
// on the warm post-join kernel.
func (s *Solver) postJoinTheta(cp *traffic.CP, capacity float64, members traffic.Population) float64 {
	s.joinBuf = append(s.joinBuf[:0], members...)
	s.joinBuf = append(s.joinBuf, *cp)
	res := s.wsJoin.Solve(capacity, s.joinBuf)
	return res.Theta[len(s.joinBuf)-1]
}

// switchGain evaluates the competitive joining condition (Definition 3,
// restated in utility form to avoid the division in Eq. 8): the per-capita
// utility gain of the premium class over the ordinary class,
//
//	gain = α_i·[(v_i − c)·ρ̃_i(premium) − v_i·ρ̃_i(ordinary)]
//
// with ρ̃ computed from each class's advertised level. A CP strictly prefers
// premium iff gain > 0; ties go to the ordinary class, the paper's
// tie-breaking convention.
func (s *Solver) switchGain(cp *traffic.CP, c, levelO, levelP float64) float64 {
	rhoO := alloc.EvalRho(cp, alloc.EvalRate(s.Alloc, levelO, cp))
	rhoP := alloc.EvalRho(cp, alloc.EvalRate(s.Alloc, levelP, cp))
	return cp.Alpha * ((cp.V-c)*rhoP - cp.V*rhoO)
}

// utilityScale bounds the magnitude of a CP's achievable utility; the
// indifference band is relative to it.
func utilityScale(cp *traffic.CP, c float64) float64 {
	v := math.Max(math.Abs(cp.V), math.Abs(cp.V-c))
	return cp.Alpha*v*cp.ThetaHat + 1e-300
}

// Competitive computes a competitive equilibrium of the game (ν, pop, s):
// Definition 3 of the paper with a rational-expectations estimator — each
// CP's estimate ρ̃_i of its ex-post throughput (Assumption 3) is the exact
// rate equilibrium of the target class including itself. Under this
// estimator the competitive conditions (Eq. 8) coincide with the Nash
// conditions (Eq. 7), which is the paper's own point that for large
// populations the two concepts agree; the value of the competitive solver
// is that it reaches the equilibrium in near-linear time instead of the
// Nash solver's quadratic sweep.
//
// The dynamics run in two phases:
//
//  1. Screening phase: every CP evaluates both classes at their current
//     advertised levels — an optimistic estimate that ignores the CP's own
//     congestion contribution and therefore upper-bounds the true switch
//     gain — and all CPs whose apparent gain exceeds the indifference band
//     move simultaneously. This settles the bulk of the population in a few
//     iterations. The phase ends when it stops making progress (no movers,
//     a revisited partition, or the iteration cap).
//
//  2. Sequential phase: candidates are screened by apparent gain in
//     descending order, and each is verified against the exact post-join
//     level of its target class — one solve of that class with the
//     candidate joined, on the warm post-join kernel — before moving; the
//     first that still gains moves, one CP per iteration.
//     A CP whose verified gain exceeds the band strictly improves its own
//     utility by moving, so the single-mover dynamics cannot immediately
//     revisit a state through the same CP; if the partition nevertheless
//     cycles (through interleaved movers), the indifference band widens and
//     the dynamics continue. When no candidate survives verification, the
//     state is an equilibrium: no CP can gain more than the band by
//     switching, accounting for its own effect.
//
// The result is an ε-equilibrium with ε reported in EpsUsed (≥ the solver's
// EpsUtil; wider only if cycling forced it). The returned state is always a
// feasible class system — the intra-class allocations are exact rate
// equilibria regardless of convergence.
func (s *Solver) Competitive(strategy Strategy, nu float64, pop traffic.Population) *ClassEquilibrium {
	return s.CompetitiveFrom(strategy, nu, pop, nil)
}

// CompetitiveFrom is Competitive with a warm-start partition (may be nil).
// Passing the previous equilibrium's InPremium when sweeping a parameter
// cuts the iteration count to a handful, since partitions move slowly along
// sweeps. The result is the caller's: CompetitiveScratch's equilibrium,
// cloned.
func (s *Solver) CompetitiveFrom(strategy Strategy, nu float64, pop traffic.Population, warm []bool) *ClassEquilibrium {
	return s.CompetitiveScratch(strategy, nu, pop, warm).Clone()
}

// CompetitiveScratch is CompetitiveFrom into the solver's pooled
// equilibrium (see the pooling contract on Solver): the same game, the
// same floats, no allocation once the solver's buffers have grown. The
// result is valid until the next call on the solver; Clone it to retain
// it. warm may alias the previous pooled partition.
func (s *Solver) CompetitiveScratch(strategy Strategy, nu float64, pop traffic.Population, warm []bool) *ClassEquilibrium {
	if err := strategy.Validate(); err != nil {
		panic(err)
	}
	if nu < 0 || math.IsNaN(nu) {
		panic(fmt.Sprintf("core: Competitive called with ν=%g", nu))
	}
	eq := s.begin(strategy, nu, pop, warm)
	// κ = 0 or no CPs: no premium class forms; the trivial profile (N, ∅).
	if len(pop) == 0 || strategy.NoPremium() {
		s.finalize(eq)
		return eq
	}

	// The unconstrained level of the full population is what an uncongested
	// class advertises; it is a function of (mechanism, pop) only, so hoist
	// it out of the dynamics.
	hiFull := s.Alloc.LevelHi(pop)
	eps := s.EpsUtil
	if eps <= 0 {
		eps = 1e-9
	}
	lO, lP := s.levels(eq, hiFull)
	if strategy.AllPremium() && len(pop) > 1 && affordable(eq) {
		// κ = 1 from the affordability partition is already an
		// equilibrium: the zero-capacity ordinary class advertises level
		// 0, where every rate is 0, so each CP's switch gain is α(v−c)ρ_P —
		// never positive for an ordinary CP (v ≤ c), never negative for a
		// premium one (v > c). The dynamics' first screen would find no
		// mover and stop there; skip it. (A one-CP game has no phase 1 and
		// takes the dynamics.)
		eq.Iterations, eq.EpsUsed = 1, eps
	} else {
		s.dynamics(eq, hiFull, eps, lO, lP)
	}
	s.finalize(eq)
	return eq
}

// dynamics runs the two-phase class dynamics (see Competitive) from eq's
// partition, whose classes levels has just solved to advertised levels lO
// and lP, until no CP moves or the iteration budget runs out. It leaves
// the final partition, Iterations, EpsUsed and Converged in eq; the caller
// finalizes.
func (s *Solver) dynamics(eq *ClassEquilibrium, hiFull, eps, lO, lP float64) {
	pop, strategy := eq.Pop, eq.Strategy
	capO := (1 - strategy.Kappa) * eq.Nu
	capP := strategy.Kappa * eq.Nu
	s.seen.reset()
	s.seen.add(eq.InPremium)

	// Phase 1: simultaneous screened moves with an adaptive mover cap.
	// Oscillation means a block of CPs overshot together; halving the cap
	// splits the block until the dynamics glide. The cap reaching 1 hands
	// over to the verified sequential phase for the endgame.
	const phase1Budget = 80
	cap1 := len(pop)
	for iter := 1; iter <= phase1Budget && cap1 > 1; iter++ {
		eq.Iterations = iter
		ms := s.screen(eq, eps, lO, lP)
		if len(ms) == 0 {
			eq.EpsUsed = eps
			return
		}
		if len(ms) > cap1 {
			ms = ms[:cap1]
		}
		for _, m := range ms {
			eq.InPremium[m.idx] = !eq.InPremium[m.idx]
		}
		lO, lP = s.levels(eq, hiFull)
		if s.seen.add(eq.InPremium) {
			s.cycles++
			cap1 /= 2 // oscillating: shrink the block
			s.seen.reset()
			s.seen.add(eq.InPremium)
		}
	}

	// Phase 2: sequential verified moves. Each candidate, best apparent gain
	// first, is verified by solving its target class with it joined on the
	// warm post-join kernel; the first that still gains moves.
	s.seen.reset()
	s.seen.add(eq.InPremium)
	for iter := eq.Iterations + 1; iter <= s.MaxIter; iter++ {
		eq.Iterations = iter
		ms := s.screen(eq, eps, lO, lP)
		movedIdx := -1
		if len(ms) > 0 {
			o, p := s.splitScratch(pop, eq.InPremium)
			for _, m := range ms {
				cp := &pop[m.idx]
				// Verify against the exact post-join level of the target
				// class (Assumption 3 with rational expectations).
				targetPremium := !eq.InPremium[m.idx]
				members, capacity, price := o, capO, 0.0
				if targetPremium {
					members, capacity, price = p, capP, strategy.C
				}
				theta := s.postJoinTheta(cp, capacity, members)
				uTarget := (cp.V - price) * cp.Alpha * alloc.EvalRho(cp, theta)
				// Current utility at the exact current level (the CP is
				// already counted in its own class).
				curLevel, curPrice := lO, 0.0
				if eq.InPremium[m.idx] {
					curLevel, curPrice = lP, strategy.C
				}
				uCur := (cp.V - curPrice) * cp.Alpha * alloc.EvalRho(cp, alloc.EvalRate(s.Alloc, curLevel, cp))
				if uTarget-uCur > eps*utilityScale(cp, strategy.C) {
					eq.InPremium[m.idx] = targetPremium
					movedIdx = m.idx
					break
				}
			}
		}
		if movedIdx < 0 {
			// No candidate survives post-join verification: equilibrium.
			eq.EpsUsed = eps
			return
		}
		lO, lP = s.levels(eq, hiFull)
		if s.seen.add(eq.InPremium) {
			s.cycles++
			eps *= 8 // interleaved cycle: widen the indifference band
			s.seen.reset()
			s.seen.add(eq.InPremium)
		}
	}
	eq.Converged = false
	eq.EpsUsed = eps
}

// begin points the pooled equilibrium at a new game and sets its initial
// partition: everyone ordinary when no premium class forms, else warm when
// it fits pop, else affordability (v_i > c). warm may alias the pooled
// partition: copy then moves nothing.
func (s *Solver) begin(strategy Strategy, nu float64, pop traffic.Population, warm []bool) *ClassEquilibrium {
	n := len(pop)
	in := slices.Grow(s.eq.InPremium[:0], n)[:n]
	switch {
	case strategy.NoPremium():
		clear(in)
	case warm != nil && len(warm) == n:
		copy(in, warm)
	default:
		for i := range pop {
			in[i] = pop[i].V > strategy.C
		}
	}
	s.eq = ClassEquilibrium{
		Strategy:  strategy,
		Nu:        nu,
		Pop:       pop,
		InPremium: in,
		Theta:     slices.Grow(s.eq.Theta[:0], n)[:n],
		Converged: true,
	}
	if cap(s.movers) < n {
		s.movers = make([]mover, 0, n)
	}
	s.leveled = false
	return &s.eq
}

// affordable reports whether eq's partition is the affordability one:
// premium exactly for the CPs with v_i > c.
func affordable(eq *ClassEquilibrium) bool {
	for i := range eq.Pop {
		if eq.InPremium[i] != (eq.Pop[i].V > eq.Strategy.C) {
			return false
		}
	}
	return true
}

// levels solves both classes of eq's current partition on the warm
// kernels and returns the levels they advertise to prospective members.
//
//pubopt:hotpath
func (s *Solver) levels(eq *ClassEquilibrium, hiFull float64) (lO, lP float64) {
	capO := (1 - eq.Strategy.Kappa) * eq.Nu
	capP := eq.Strategy.Kappa * eq.Nu
	o, p := s.splitScratch(eq.Pop, eq.InPremium)
	s.leveledO, s.leveledP, s.leveled = s.wsO.Solve(capO, o), s.wsP.Solve(capP, p), true
	return s.classLevel(s.leveledO, capO, hiFull), s.classLevel(s.leveledP, capP, hiFull)
}

// mover is a CP whose switch looks profitable, with its apparent utility
// improvement (always > 0).
type mover struct {
	idx  int
	gain float64
}

// screen collects the CPs whose switch looks profitable at the advertised
// class levels (an upper bound on the true gain), best first, into the
// solver's mover buffer (begin sizes it to the population).
//
//pubopt:hotpath
func (s *Solver) screen(eq *ClassEquilibrium, eps, lO, lP float64) []mover {
	ms := s.movers[:0]
	c := eq.Strategy.C
	for i := range eq.Pop {
		g := s.switchGain(&eq.Pop[i], c, lO, lP)
		band := eps * utilityScale(&eq.Pop[i], c)
		switch {
		case !eq.InPremium[i] && g > band:
			ms = ms[:len(ms)+1]
			ms[len(ms)-1] = mover{idx: i, gain: g}
		case eq.InPremium[i] && g < -band:
			ms = ms[:len(ms)+1]
			ms[len(ms)-1] = mover{idx: i, gain: -g}
		}
	}
	// Generic sort: unlike sort.Slice it reflects nothing and allocates
	// nothing, and screen runs once per dynamics iteration.
	slices.SortFunc(ms, func(a, b mover) int {
		switch {
		case a.gain > b.gain:
			return -1
		case a.gain < b.gain:
			return 1
		}
		return 0
	})
	return ms
}

// Trivial computes the degenerate strategy profiles of the paper without
// iteration: for κ = 0 it is (N, ∅); for κ = 1 it is ({i : v_i ≤ c}, rest)
// (§III-C). Every κ but 1 goes through Competitive, which starts κ = 0 at
// (N, ∅) and moves no CP.
func (s *Solver) Trivial(strategy Strategy, nu float64, pop traffic.Population) *ClassEquilibrium {
	if strategy.AllPremium() {
		eq := s.begin(strategy, nu, pop, nil)
		s.finalize(eq)
		return eq.Clone()
	}
	return s.Competitive(strategy, nu, pop)
}

// finalize computes the exact intra-class equilibria and the per-CP θ for
// the current partition: the last levels call's results when it solved
// this partition, else solves on the warm kernels (κ = 0 solves the whole
// population in place, it being the ordinary class). eq keeps the pooled
// results: ClassEquilibrium.CopyInto copies them when a caller retains the
// equilibrium.
func (s *Solver) finalize(eq *ClassEquilibrium) {
	switch {
	case s.leveled:
		eq.Ordinary, eq.Premium = s.leveledO, s.leveledP
	case eq.Strategy.NoPremium():
		eq.Ordinary = s.wsO.Solve(eq.Nu, eq.Pop)
		eq.Premium = s.wsP.Solve(0, s.premBuf[:0])
	default:
		o, p := s.splitScratch(eq.Pop, eq.InPremium)
		eq.Ordinary = s.wsO.Solve((1-eq.Strategy.Kappa)*eq.Nu, o)
		eq.Premium = s.wsP.Solve(eq.Strategy.Kappa*eq.Nu, p)
	}
	oi, pi := 0, 0
	for i := range eq.Pop {
		if eq.InPremium[i] {
			eq.Theta[i] = eq.Premium.Theta[pi]
			pi++
		} else {
			eq.Theta[i] = eq.Ordinary.Theta[oi]
			oi++
		}
	}
}

// partitionSet tracks the class partitions the dynamics have visited, for
// cycle detection. Membership bits are packed into an arena, one key per
// visited partition, and hashed with 64-bit FNV-1a; the map sends a hash to
// the first key that had it. The packed keys are compared on lookup, so a
// hash collision can never report a phantom cycle (a false positive would
// spuriously shrink the phase-1 mover cap or widen the indifference band).
// reset keeps the map's buckets and the arena, so once both have grown to a
// game's longest run of distinct partitions nothing allocates.
type partitionSet struct {
	first map[uint64]int // hash → index of the first key with that hash
	arena []byte         // packed keys, each n bytes, in visit order
	n     int            // packed key length; every partition between resets has the same length
}

// reset empties the set.
func (ps *partitionSet) reset() {
	if ps.first == nil {
		ps.first = make(map[uint64]int, 64)
	}
	clear(ps.first)
	ps.arena = ps.arena[:0]
}

// add records the partition and reports whether it was already present.
//
//pubopt:hotpath
func (ps *partitionSet) add(premium []bool) bool {
	ps.n = (len(premium) + 7) / 8
	// Pack into the arena's tail: the bytes stay as the new key, or are
	// dropped again on a revisit.
	keys := len(ps.arena) / max(ps.n, 1)
	if cap(ps.arena)-len(ps.arena) < ps.n {
		//pubopt:allow(hotpathalloc): the arena grows until it holds a game's longest run of distinct partitions, then reset reuses it
		ps.arena = append(ps.arena, make([]byte, ps.n)...)[:len(ps.arena)]
	}
	b := ps.arena[len(ps.arena) : len(ps.arena)+ps.n]
	clear(b)
	for i, p := range premium {
		if p {
			b[i/8] |= 1 << (i % 8)
		}
	}
	const offset64, prime64 = uint64(14695981039346656037), uint64(1099511628211)
	h := offset64
	for _, c := range b {
		h ^= uint64(c)
		h *= prime64
	}
	if k, ok := ps.first[h]; ok {
		if bytes.Equal(ps.key(k), b) {
			return true
		}
		// A 64-bit collision: compare against every stored key.
		for j := range keys {
			if bytes.Equal(ps.key(j), b) {
				return true
			}
		}
	} else {
		ps.first[h] = keys
	}
	ps.arena = ps.arena[:len(ps.arena)+ps.n]
	return false
}

// key returns the k-th stored packed partition.
func (ps *partitionSet) key(k int) []byte { return ps.arena[k*ps.n : (k+1)*ps.n] }
