package numeric

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
