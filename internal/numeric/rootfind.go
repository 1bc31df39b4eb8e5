package numeric

import "math"

// DefaultTol is the absolute tolerance used by solvers when the caller passes
// a non-positive tolerance. It is deliberately far from float64 epsilon: the
// model quantities (throughputs, surpluses) are O(1)–O(1e4), and equilibrium
// maps are Lipschitz, so 1e-10 is well below any economically meaningful
// difference while leaving bisection ~50 iterations.
const DefaultTol = 1e-10

const maxBisectIter = 200

// Bisect finds x in [lo, hi] with f(x) = 0 for a continuous f that is
// non-decreasing on the interval, to within absolute x-tolerance tol. If
// f(lo) > 0 it returns lo; if f(hi) < 0 it returns hi. This clamping variant
// is what the equilibrium solvers need: "no interior root" means the
// constraint binds at a boundary (e.g. capacity exceeds total demand), and
// the boundary is the correct answer rather than an error.
func Bisect(f func(float64) float64, lo, hi, tol float64) float64 {
	if tol <= 0 {
		tol = DefaultTol
	}
	if lo > hi {
		lo, hi = hi, lo
	}
	flo := f(lo)
	if flo >= 0 {
		return lo
	}
	fhi := f(hi)
	if fhi <= 0 {
		return hi
	}
	for i := 0; i < maxBisectIter && hi-lo > tol; i++ {
		mid := lo + (hi-lo)/2
		if f(mid) < 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo + (hi-lo)/2
}

// BisectDecreasing is Bisect for a non-increasing f: it finds x with
// f(x) = 0, returning lo when f(lo) <= 0 and hi when f(hi) >= 0.
func BisectDecreasing(f func(float64) float64, lo, hi, tol float64) float64 {
	return Bisect(func(x float64) float64 { return -f(x) }, lo, hi, tol)
}

// secantCredit is how many secant evaluations BisectDecreasingFrom may
// spend beyond the bisection midpoints they decide for it. It bounds the
// search's cost where the secant does not help (steps, kinks, plateaus)
// at BisectDecreasing's count plus this constant.
const secantCredit = 6

// BisectDecreasingFrom returns exactly what BisectDecreasing(f, lo, hi,
// tol) returns for every non-increasing f, in far fewer evaluations of f
// when f is smooth near its root. The caller supplies a point x0 where it
// already knows f0 = f(x0); a seed outside [lo, hi], or with f0 zero or
// NaN, leaves the clamp check as BisectDecreasing's.
//
// Bisection's answer is fixed by the signs of f at its midpoint sequence
// on [lo, hi], and a bracket [a, b] with f(a) > 0 ≥ f(b) decides the sign
// at every midpoint outside (a, b). The search keeps such a bracket and
// replays Bisect's midpoints in order, evaluating only those inside it.
// Before it evaluates one, it tries to decide it by narrowing the bracket:
//
//   - The sign of f0 decides which one endpoint the clamp check must
//     evaluate, and x0 becomes an end of the bracket.
//   - Each secant step goes through the last two evaluated points and
//     stays at least tol/128 inside the bracket, so a secant converging
//     on the root from one side steps over it and closes the bracket to
//     well under tol, where later midpoints rarely fall.
//   - A secant step that would leave the bracket, and every step once the
//     secant has spent secantCredit evaluations more than the midpoints it
//     decided, evaluates the replay's own midpoint instead: an evaluation
//     BisectDecreasing makes too. The search therefore never costs more
//     than BisectDecreasing plus secantCredit evaluations.
//   - A secant point with f exactly 0 also evaluates the midpoint: on a
//     zero plateau the secant through it returns that point, and the
//     tol/128 minimum step would crawl along the plateau.
//
// For an f that is not non-increasing the answer is still inside
// [lo, hi], but it may differ from BisectDecreasing's.
func BisectDecreasingFrom(f func(float64) float64, lo, hi, x0, f0, tol float64) float64 {
	if tol <= 0 {
		tol = DefaultTol
	}
	if lo > hi {
		lo, hi = hi, lo
	}
	// Bisect's predicate on -f is f(x) > 0: a midpoint moves lo up iff
	// f(mid) > 0. The bracket [a, b] keeps fa = f(a) > 0 ≥ f(b) = fb.
	var a, fa, b, fb float64
	seeded := x0 >= lo && x0 <= hi
	switch {
	case seeded && f0 > 0: // f(lo) ≥ f0 > 0, so the low clamp cannot fire
		fb = f0
		if x0 < hi {
			fb = f(hi)
		}
		if fb >= 0 {
			return hi
		}
		a, fa, b = x0, f0, hi
	case seeded && f0 < 0: // f(hi) ≤ f0 < 0, so the high clamp cannot fire
		fa = f0
		if x0 > lo {
			fa = f(lo)
		}
		if fa <= 0 {
			return lo
		}
		a, b, fb = lo, x0, f0
	default:
		if fa = f(lo); fa <= 0 {
			return lo
		}
		if fb = f(hi); fb >= 0 {
			return hi
		}
		a, b = lo, hi
	}

	h := tol / 128
	// The secant's last two points, q the latest: first the bracket's ends,
	// the one nearer a root in value as q.
	p, fp, q, fq := b, fb, a, fa
	if math.Abs(fb) < math.Abs(fa) {
		p, fp, q, fq = a, fa, b, fb
	}
	credit := secantCredit
	for i := 0; i < maxBisectIter && hi-lo > tol; i++ {
		mid := lo + (hi-lo)/2
		decided := true // the bracket decides mid without evaluating it
		for mid > a && mid < b {
			x, secant := mid, false
			if credit > 0 && fp != 0 && fq != 0 { //pubopt:allow(floatcmp): an exact zero is a plateau point, where the secant stalls
				if s := q - fq*(q-p)/(fq-fp); s >= a && s <= b {
					if s = min(max(s, a+h), b-h); s > a && s < b {
						x, secant = s, true
						credit--
					}
				}
			}
			decided = decided && secant
			fx := f(x)
			p, fp, q, fq = q, fq, x, fx
			if fx > 0 {
				a = x
			} else {
				b = x
			}
		}
		if decided {
			credit++
		}
		if mid <= a {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo + (hi-lo)/2
}
