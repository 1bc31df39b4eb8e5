package numeric

import (
	"math"
	"sort"
)

// Kahan is a zero-allocation compensated-summation accumulator: the
// streaming form of Sum for hot paths that must not build a slice of terms
// (equilibrium aggregates, surplus metrics). The zero value is ready to
// use.
type Kahan struct {
	sum, comp float64
}

// Add folds x into the compensated sum.
func (k *Kahan) Add(x float64) {
	y := x - k.comp
	t := k.sum + y
	k.comp = (t - k.sum) - y
	k.sum = t
}

// Value returns the compensated sum so far.
func (k *Kahan) Value() float64 { return k.sum }

// Sum returns the Kahan-compensated sum of xs. Compensated summation keeps
// the per-capita surplus aggregations over 1000 CPs accurate enough that
// equilibrium comparisons at tolerance 1e-9 are meaningful.
func Sum(xs []float64) float64 {
	var k Kahan
	for _, x := range xs {
		k.Add(x)
	}
	return k.Value()
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return Sum(xs) / float64(len(xs))
}

// MinMax returns the smallest and largest elements of xs. It panics on an
// empty slice.
func MinMax(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		panic("numeric: MinMax of empty slice")
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics. It panics on an empty slice or
// q outside [0, 1].
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		panic("numeric: Quantile of empty slice")
	}
	if q < 0 || q > 1 {
		panic("numeric: Quantile q outside [0,1]")
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(math.Floor(pos))
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(i)
	return s[i]*(1-frac) + s[i+1]*frac
}

// JainIndex returns Jain's fairness index (Σx)² / (n·Σx²) of the allocation
// xs: 1 for perfectly equal shares, 1/n when one flow has everything. It
// returns 1 for empty or all-zero allocations (nothing to be unfair about).
func JainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 { //pubopt:allow(floatcmp): all-zero rates are exactly representable; Jain's index is 1 by convention
		return 1
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

// Linspace returns n evenly spaced values from lo to hi inclusive. n must be
// at least 2 (use []float64{lo} yourself for a single point).
func Linspace(lo, hi float64, n int) []float64 {
	if n < 2 {
		panic("numeric: Linspace needs n >= 2")
	}
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = lo + (hi-lo)*float64(i)/float64(n-1)
	}
	xs[n-1] = hi
	return xs
}

// ArgMax returns the index of the largest element of xs (first on ties). It
// panics on an empty slice.
func ArgMax(xs []float64) int {
	if len(xs) == 0 {
		panic("numeric: ArgMax of empty slice")
	}
	best := 0
	for i, x := range xs[1:] {
		if x > xs[best] {
			best = i + 1
		}
	}
	return best
}

// MaxDownwardGap returns sup{ys[i] − ys[j] : i < j}, the largest drop of the
// sampled curve ys, which is the paper's discontinuity metric ε_s (Eq. 9)
// evaluated on a grid: the largest amount by which the consumer-surplus curve
// Φ(ν) falls as capacity grows. It returns 0 for non-decreasing curves.
func MaxDownwardGap(ys []float64) float64 {
	var gap, runMax float64
	if len(ys) == 0 {
		return 0
	}
	runMax = ys[0]
	for _, y := range ys[1:] {
		if d := runMax - y; d > gap {
			gap = d
		}
		if y > runMax {
			runMax = y
		}
	}
	return gap
}

// AlmostEqual reports whether a and b agree to within tol absolutely, or
// relatively for large magnitudes.
func AlmostEqual(a, b, tol float64) bool {
	d := math.Abs(a - b)
	if d <= tol {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return d <= tol*scale
}
