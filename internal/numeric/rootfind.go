package numeric

import (
	"errors"
	"fmt"
	"math"
)

// ErrNoBracket is returned when a root finder is called on an interval whose
// endpoints do not bracket the target value.
var ErrNoBracket = errors.New("numeric: endpoints do not bracket a root")

// ErrMaxIterations is returned when an iterative method fails to reach the
// requested tolerance within its iteration budget.
var ErrMaxIterations = errors.New("numeric: maximum iterations exceeded")

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

// Brent finds a root of continuous f in [lo, hi] using Brent's method
// (inverse quadratic interpolation with bisection fallback), which converges
// superlinearly on smooth functions while retaining bisection's robustness.
// The endpoints must bracket a root; otherwise ErrNoBracket is returned.
func Brent(f func(float64) float64, lo, hi, tol float64) (float64, error) {
	if tol <= 0 {
		tol = DefaultTol
	}
	a, b := lo, hi
	fa, fb := f(a), f(b)
	if fa == 0 { //pubopt:allow(floatcmp): exact root at Brent's left endpoint
		return a, nil
	}
	if fb == 0 { //pubopt:allow(floatcmp): exact root at Brent's right endpoint
		return b, nil
	}
	if (fa > 0) == (fb > 0) {
		return 0, fmt.Errorf("%w: f(%g)=%g, f(%g)=%g", ErrNoBracket, a, fa, b, fb)
	}
	if math.Abs(fa) < math.Abs(fb) {
		a, b, fa, fb = b, a, fb, fa
	}
	c, fc := a, fa
	mflag := true
	var d float64
	for i := 0; i < maxBisectIter; i++ {
		if fb == 0 || math.Abs(b-a) < tol { //pubopt:allow(floatcmp): exact zero ends the iteration; the tolerance test beside it handles near-zeros
			return b, nil
		}
		var s float64
		if fa != fc && fb != fc { //pubopt:allow(floatcmp): inverse quadratic interpolation divides by these exact differences; equal ordinates must fall back to secant
			// Inverse quadratic interpolation.
			s = a*fb*fc/((fa-fb)*(fa-fc)) +
				b*fa*fc/((fb-fa)*(fb-fc)) +
				c*fa*fb/((fc-fa)*(fc-fb))
		} else {
			// Secant step.
			s = b - fb*(b-a)/(fb-fa)
		}
		lo3, hi3 := (3*a+b)/4, b
		if lo3 > hi3 {
			lo3, hi3 = hi3, lo3
		}
		cond := s < lo3 || s > hi3 ||
			(mflag && math.Abs(s-b) >= math.Abs(b-c)/2) ||
			(!mflag && math.Abs(s-b) >= math.Abs(c-d)/2) ||
			(mflag && math.Abs(b-c) < tol) ||
			(!mflag && math.Abs(c-d) < tol)
		if cond {
			s = (a + b) / 2
			mflag = true
		} else {
			mflag = false
		}
		fs := f(s)
		d = c
		c, fc = b, fb
		if (fa > 0) != (fs > 0) {
			b, fb = s, fs
		} else {
			a, fa = s, fs
		}
		if math.Abs(fa) < math.Abs(fb) {
			a, b, fa, fb = b, a, fb, fa
		}
	}
	return b, ErrMaxIterations
}

// FixedPoint iterates x <- damping*g(x) + (1-damping)*x from x0 until
// successive iterates differ by less than tol, returning the final iterate
// and whether it converged within maxIter steps. Damping in (0, 1] trades
// speed for stability on oscillating maps; 1 is plain Picard iteration.
func FixedPoint(g func(float64) float64, x0, damping, tol float64, maxIter int) (float64, bool) {
	if tol <= 0 {
		tol = DefaultTol
	}
	if damping <= 0 || damping > 1 {
		damping = 1
	}
	if maxIter <= 0 {
		maxIter = 500
	}
	x := x0
	for i := 0; i < maxIter; i++ {
		next := damping*g(x) + (1-damping)*x
		if math.Abs(next-x) < tol {
			return next, true
		}
		x = next
	}
	return x, false
}
