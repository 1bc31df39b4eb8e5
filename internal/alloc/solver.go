package alloc

import (
	"fmt"
	"math"

	"github.com/netecon-sim/publicoption/internal/obs"
	"github.com/netecon-sim/publicoption/internal/traffic"
)

// Workspace is a reusable, allocation-free equilibrium solver: the hot-path
// counterpart of Solve. It owns every scratch buffer the solve needs — the
// flattened per-CP parameter arrays, the θ output buffer and a pooled
// Result — and it keeps the equilibrium level of the previous solve as a
// warm start for the next one.
//
// # Pooling contract
//
// Solve returns a pointer to the workspace's own Result; the pointed-to
// value (including its Theta slice) is valid only until the next call to
// Solve on the same workspace. Callers that retain an equilibrium across
// solves must copy it: Clone, or CopyInto a Result whose buffers they
// reuse. This is the deliberate trade: the games solve
// thousands of intermediate equilibria per published point and read each
// one immediately, so the hot path allocates nothing, and only the handful
// of results that outlive an iteration pay for copies.
//
// # Warm starts
//
// Along a sweep — capacity grids, price grids, the class dynamics'
// single-CP moves — the equilibrium level moves slowly (Axiom 3 makes it
// monotone in ν, and one CP switching classes perturbs it by O(α_i)). The
// workspace therefore probes the new root near the previous level and hands
// the tight bracket to a hybrid secant/bisection search, converging in a
// few aggregate-map evaluations instead of a full cold search. The probe is
// predicted to first order: the kernel keeps the previous solve's ν and the
// secant slope of its final bracket, so the first probe is
// ℓ_prev + (ν − ν_prev)/slope and the step to the other side of the root is
// twice the remaining residual over the slope (at least 4·relTol·hi). The
// prediction is only a probe: the bracket is verified by sign before it is
// trusted and the search stops on the same relTol·hi bracket width as a
// cold solve. Warm starts therefore move the level only within relTol·hi,
// but they do move it: a warm and a cold solve of the same system can differ
// in the last bits, which is why callers that need answers independent of
// solve history (the grid workers) call Reset first. Reset and uncongested
// solves drop the slope; Reset also drops the warm level.
//
// A ν = 0 solve returns at once: the zero level is work conserving, every
// rate is 0 (see Allocator.RateAt), and the warm state is left as it was,
// so a zero-capacity class sharing a kernel with a loaded one does not
// cost the loaded one its warm start.
//
// A Workspace is not safe for concurrent use; create one per goroutine
// (sweep workers each own one, which is exactly the shape sweep.RunRows
// distributes).
type Workspace struct {
	a    Allocator
	flat flattener // non-nil for the built-in mechanisms (flattened path)
	// linear marks the level-linear mechanisms, whose flattened x_i are
	// the rates; the others' rates come from RateAt.
	linear bool

	// Flattened per-CP state, rebound on every Solve (built-in mechanisms
	// only; see flattener). Binding is one pass over the population — the
	// same order of work as a single aggregate evaluation — and buys back
	// dozens of interface dispatches per root-search iteration.
	gain   []float64 // g_i: x_i(ℓ) = min(g_i·ℓ, c_i)
	weight []float64 // w_i
	ceil   []float64 // c_i
	dkind  []uint8   // demand family tag (dExponential, ...)
	dparam []float64 // demand family parameter (β, floor, γ)
	pop    traffic.Population

	res   Result
	theta []float64

	warmLevel float64
	warmHi    float64
	hasWarm   bool
	// warmNu and slope are the previous constrained solve's capacity and the
	// secant slope of its final search bracket, an estimate of
	// d(aggregate)/dℓ (0 when unknown): together they predict the next warm
	// probe.
	warmNu float64
	slope  float64

	// stats counts solver work across the workspace's lifetime: aggregate
	// evaluations, warm vs. cold bracketing, forced bisections, and the
	// final residual bound. Plain (non-atomic) fields: a Workspace is
	// single-goroutine by contract, and the hot path must not pay for
	// synchronization it does not need. Read through Stats or Evals.
	stats obs.SolveStats
}

// NewWorkspace returns a workspace for mechanism a (nil means the paper's
// max-min mechanism).
func NewWorkspace(a Allocator) *Workspace {
	if a == nil {
		a = MaxMin{}
	}
	w := &Workspace{a: a}
	w.flat, _ = a.(flattener)
	return w
}

// Stats returns the workspace's cumulative solver telemetry. The returned
// value is a snapshot; use obs.SolveStats.Since against a previous snapshot
// to attribute work to one solve or one sweep segment.
func (w *Workspace) Stats() obs.SolveStats { return w.stats }

// Reset drops the warm-start state (keeping the scratch buffers and the
// cumulative Stats): the next solve brackets exactly as on a fresh
// workspace, with the same levels and the same eval counts. Call it
// between solves that must not depend on each other; correctness never
// requires it.
func (w *Workspace) Reset() {
	w.warmLevel, w.warmHi, w.hasWarm, w.warmNu, w.slope = 0, 0, false, 0, 0
}

// ensure grows the scratch buffers to hold n CPs without allocating on the
// steady state.
func (w *Workspace) ensure(n int) {
	if cap(w.theta) < n {
		w.theta = make([]float64, n)
		w.gain = make([]float64, n)
		w.weight = make([]float64, n)
		w.ceil = make([]float64, n)
		w.dkind = make([]uint8, n)
		w.dparam = make([]float64, n)
	}
	w.theta = w.theta[:n]
	w.gain = w.gain[:n]
	w.weight = w.weight[:n]
	w.ceil = w.ceil[:n]
	w.dkind = w.dkind[:n]
	w.dparam = w.dparam[:n]
}

// bind flattens the population for a built-in mechanism and returns the
// mechanism's unconstrained level (LevelHi). For other mechanisms it only
// records the population and asks the mechanism.
//
//pubopt:hotpath
func (w *Workspace) bind(pop traffic.Population) (hi float64) {
	w.pop = pop
	if w.flat == nil {
		return w.a.LevelHi(pop)
	}
	hi, w.linear = w.flat.flatten(w, pop)
	return hi
}

// flattenCPs fills the weight, cap and demand arrays of a level-linear
// mechanism from the CPs: w_i = α_i, c_i = θ̂_i and d_i the CP's curve.
//
//pubopt:hotpath
func (w *Workspace) flattenCPs(pop traffic.Population) {
	for i := range pop {
		cp := &pop[i]
		w.weight[i] = cp.Alpha
		w.ceil[i] = cp.ThetaHat
		w.dkind[i], w.dparam[i] = classifyCurve(cp.Curve)
	}
}

// aggregateAt evaluates the aggregate per-capita rate map at level: the
// flattened sum for a built-in mechanism, else the per-CP RateAt loop.
//
//pubopt:hotpath
func (w *Workspace) aggregateAt(level float64) float64 {
	w.stats.Evals++
	if w.flat != nil {
		return w.flatAggregate(level)
	}
	var sum float64
	for i := range w.pop {
		sum += EvalPerCapitaRate(&w.pop[i], w.a.RateAt(level, &w.pop[i]))
	}
	return sum
}

// flatAggregate is the devirtualized inner loop: pure float arithmetic over
// the flattened arrays, one math.Exp per exponential-demand CP, zero
// interface calls for the built-in demand families.
//
//pubopt:hotpath
func (w *Workspace) flatAggregate(level float64) float64 {
	var sum float64
	for i, g := range w.gain {
		th := g * level
		if hat := w.ceil[i]; th > hat {
			th = hat
		}
		if th <= 0 {
			continue
		}
		var d float64
		if kind := w.dkind[i]; kind != dGeneric {
			d = demandAtKind(kind, w.dparam[i], th/w.ceil[i])
		} else {
			d = w.pop[i].Curve.At(th / w.ceil[i])
		}
		sum += w.weight[i] * d * th
	}
	return sum
}

// ratesAt fills out[i] = θ_i(level): from the flattened arrays for a
// level-linear mechanism, else through RateAt.
//
//pubopt:hotpath
func (w *Workspace) ratesAt(level float64, out []float64) {
	if w.linear {
		for i, g := range w.gain {
			th := g * level
			if level <= 0 {
				th = 0
			} else if hat := w.ceil[i]; th > hat {
				th = hat
			}
			out[i] = th
		}
		return
	}
	for i := range w.pop {
		out[i] = w.a.RateAt(level, &w.pop[i])
	}
}

// Solve computes the rate equilibrium of the per-capita system (ν, pop):
// the same map as Solve (Theorem 1), through the workspace's fast path.
// The returned Result is pooled — see the type comment.
//
//pubopt:hotpath
func (w *Workspace) Solve(nu float64, pop traffic.Population) *Result {
	if nu < 0 || math.IsNaN(nu) {
		//pubopt:allow(hotpathalloc): cold panic path; formatting happens only on invalid input, never per solve
		panic(fmt.Sprintf("alloc: Workspace.Solve called with invalid ν=%g", nu))
	}
	n := len(pop)
	w.ensure(n)
	w.stats.Solves++
	res := &w.res
	*res = Result{Nu: nu, Pop: pop, Theta: w.theta}
	if n == 0 {
		w.stats.Residual = 0
		return res
	}
	total := pop.TotalUnconstrainedPerCapita()
	if nu >= total {
		// Uncongested: Axiom 2 forces θ_i = θ̂_i for every CP.
		hi := w.bind(pop)
		for i := range pop {
			w.theta[i] = pop[i].ThetaHat
		}
		res.Level = hi
		w.warmLevel, w.warmHi, w.hasWarm, w.slope = hi, hi, true, 0
		w.stats.Residual = 0
		return res
	}
	res.Constrained = true
	w.stats.Constrained++
	if nu == 0 { //pubopt:allow(floatcmp): ν = 0 is the exact zero-capacity input (a κ = 1 ordinary class), not a computed value
		// The zero level is work conserving and every rate is 0; nothing
		// to bind or search, and the warm state stays as it was.
		clear(w.theta)
		w.stats.Residual = 0
		return res
	}
	hi := w.bind(pop)
	level := w.findLevel(nu, hi, total)
	res.Level = level
	w.ratesAt(level, w.theta)
	if w.flat != nil && !w.linear {
		// The rates invert the flattened map, whose bracket does not see
		// the inversion's error: measure the returned rates' error too.
		w.stats.Residual = max(w.stats.Residual, math.Abs(res.Aggregate()-nu))
	}
	w.warmLevel, w.warmHi, w.hasWarm, w.warmNu = level, hi, true, nu
	return res
}

// SolveSystem is the absolute-scale entry point (Axiom 4 / Lemma 1):
// Workspace.Solve at ν = µ/M. M must be positive.
//
//pubopt:hotpath
func (w *Workspace) SolveSystem(m, mu float64, pop traffic.Population) *Result {
	if !(m > 0) {
		//pubopt:allow(hotpathalloc): cold panic path; formatting happens only on invalid input, never per solve
		panic(fmt.Sprintf("alloc: Workspace.SolveSystem called with M=%g, want > 0", m))
	}
	return w.Solve(mu/m, pop)
}

// findLevel locates the work-conserving level: the root of
// f(ℓ) = aggregate(ℓ) − ν on [0, hi], with f non-decreasing, f(0) = −ν < 0
// and f(hi) = total − ν > 0 (the caller has already excluded ν = 0 and the
// uncongested case). The endpoint values are known analytically, so a cold
// solve starts with zero evaluations spent on the bracket; a warm solve
// shrinks the bracket around the predicted level first.
//
//pubopt:hotpath
func (w *Workspace) findLevel(nu, hi, total float64) float64 {
	tol := relTol * hi
	lo, flo := 0.0, -nu
	up, fup := hi, total-nu
	// rlo and rup are |f| at the bracket ends as evaluated: the Illinois
	// steps halve flo and fup, never these.
	rlo, rup := nu, total-nu

	warm := false
	if w.hasWarm && w.warmLevel > 0 {
		// Trust the prediction only as a probe point: evaluate, assign it to
		// the correct side of the bracket, then step toward the other side
		// until the sign flips.
		x0 := w.warmLevel
		if w.warmHi > 0 && w.warmHi != hi { //pubopt:allow(floatcmp): warmHi is copied from the previous solve; bitwise equality means the same level range, anything else rescales
			// The level range rescaled (population or weights changed);
			// carry the warm level across proportionally.
			x0 *= hi / w.warmHi
		}
		if w.slope > 0 {
			// First order in ν: the level moves by Δν over the slope.
			if x := x0 + (nu-w.warmNu)/w.slope; x > lo+tol && x < up-tol {
				x0 = x
			}
		}
		if x0 > lo+tol && x0 < up-tol {
			warm = true
			w.stats.WarmBrackets++
			f0 := w.aggregateAt(x0) - nu
			if f0 == 0 { //pubopt:allow(floatcmp): exact residual zero is the root; near-zero keeps bracketing
				w.stats.Residual = 0
				return x0
			}
			if f0 < 0 {
				lo, flo, rlo = x0, f0, -f0
			} else {
				up, fup, rup = x0, f0, f0
			}
			// Probe the other side of the root: twice the Newton distance
			// |f0|/slope, or 1e-3·hi with no slope on record, expanding
			// geometrically on a miss.
			step := 1e-3 * hi
			if w.slope > 0 {
				step = max(2*math.Abs(f0)/w.slope, 4*tol)
			}
			step = min(step, hi/4)
			for k := 0; k < 5 && up-lo > tol; k++ {
				var x float64
				if fup == total-nu && up == hi { //pubopt:allow(floatcmp): tests whether the endpoint still holds its untouched initial value, an identity check on stored floats
					// Root is above x0: probe upward from the lower end.
					x = lo + step
					if x >= hi {
						break
					}
				} else if flo == -nu && lo == 0 { //pubopt:allow(floatcmp): same untouched-initial-value identity check for the lower end
					// Root is below x0: probe downward from the upper end.
					x = up - step
					if x <= 0 {
						break
					}
				} else {
					break // both sides already tightened
				}
				fx := w.aggregateAt(x) - nu
				if fx == 0 { //pubopt:allow(floatcmp): exact residual zero is the root
					w.stats.Residual = 0
					return x
				}
				if fx < 0 {
					lo, flo, rlo = x, fx, -fx
				} else {
					up, fup, rup = x, fx, fx
				}
				step *= 8
			}
		}
	}
	if !warm {
		w.stats.ColdBrackets++
	}

	// Bracketed hybrid search: Illinois-damped false position — the secant
	// through the bracket endpoints, halving a stale endpoint's residual so
	// convex aggregates cannot stall an end — with a bisection safeguard
	// that fires only when four consecutive secant steps fail to halve the
	// bracket. Terminates on the same bracket-width criterion as Solve's
	// bisection, so the two agree to solver tolerance.
	side := 0
	checkWidth := up - lo
	sinceCheck := 0
	for iter := 0; iter < maxLevelIter && up-lo > tol; iter++ {
		var x float64
		if sinceCheck >= 4 {
			if up-lo > checkWidth/2 {
				x = lo + (up-lo)/2 // stagnating: force a bisection step
				side = 0
				w.stats.Bisections++
			}
			checkWidth = up - lo
			sinceCheck = 0
		}
		if x == 0 { //pubopt:allow(floatcmp): x=0 is the exact not-yet-chosen sentinel set two branches up, never a computed level
			x = (lo*fup - up*flo) / (fup - flo)
			if !(x > lo && x < up) {
				x = lo + (up-lo)/2
				side = 0
				w.stats.Bisections++
			}
		}
		sinceCheck++
		fx := w.aggregateAt(x) - nu
		switch {
		case fx == 0: //pubopt:allow(floatcmp): exact residual zero is the root
			w.stats.Residual = 0
			return x
		case fx < 0:
			lo, flo, rlo = x, fx, -fx
			if side < 0 {
				fup /= 2
			}
			side = -1
		default:
			up, fup, rup = x, fx, fx
			if side > 0 {
				flo /= 2
			}
			side = 1
		}
	}
	// The next solve's probe uses this bracket's secant slope.
	if s := (fup - flo) / (up - lo); s > 0 && !math.IsInf(s, 1) {
		w.slope = s
	} else {
		w.slope = 0
	}
	// The residual bound is the larger evaluated |f| at the final bracket's
	// ends: the aggregate is non-decreasing in the level, so the returned
	// midpoint's aggregate−ν lies between them, and reading it costs no
	// extra aggregate evaluation.
	w.stats.Residual = max(rlo, rup)
	return lo + (up-lo)/2
}

// maxLevelIter caps the hybrid search. The stagnation safeguard halves the
// bracket at least once every eight evaluations, so the budget covers far
// more than the 50 halvings a full-range bisection needs; on a 1000-CP
// sizing cell a cold solve takes about 9 evaluations and a warm one about
// 6, the warm probe and its other-side step included.
const maxLevelIter = 400
