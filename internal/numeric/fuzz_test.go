package numeric

import (
	"cmp"
	"math"
	"slices"
	"testing"
)

// FuzzRootfind throws arbitrary cubics, brackets and seeds at the
// bisections. The contract under fuzzing: no input — including NaN, ±Inf,
// and inverted or degenerate brackets — may panic; whenever the bracket is
// finite, every returned root lies inside it (the bisections clamp by
// contract); and on a non-increasing cubic BisectDecreasingFrom returns
// BisectDecreasing's root bit for bit, from any seed.
func FuzzRootfind(f *testing.F) {
	f.Add(1.0, 0.0, -2.0, 0.0, 2.0, 1e-10, 1.0)  // x³ = 2
	f.Add(0.5, -3.0, 1.0, -4.0, 4.0, 1e-8, 0.0)  // three real roots
	f.Add(0.0, 0.0, 0.0, 0.0, 1.0, 1e-12, 0.5)   // identically zero
	f.Add(0.0, 1.0, -0.25, -1.0, 1.0, 0.0, 0.25) // linear, tol defaulted
	f.Add(2.0, -1.0, 0.5, 3.0, -3.0, 1e-10, 1.0) // inverted bracket
	f.Add(1.0, 1.0, 1.0, 5.0, 5.0, 1e-10, 5.0)   // degenerate bracket
	f.Add(-1.0, -0.5, 0.3, -1.0, 2.0, 1e-7, 0.1) // decreasing, seed left of the root
	f.Add(-0.01, -2.0, 1.0, 0.0, 1.0, 1e-8, 0.9) // decreasing, seed right of the root
	f.Add(0.0, -1.0, 0.5, 0.0, 1.0, 1e-9, 3.0)   // decreasing, seed outside the bracket
	f.Add(-1.0, 0.0, 0.0, -1.0, 1.0, 1e-7, 0.0)  // flat at the root, seed on it
	f.Fuzz(func(t *testing.T, a, b, c, lo, hi, tol, x0 float64) {
		cubic := func(x float64) float64 { return ((a*x)*x+b)*x + c }
		// Every point either decreasing search evaluates, to check that
		// the function they saw is non-increasing.
		var seen [][2]float64
		record := func(x float64) float64 {
			y := cubic(x)
			seen = append(seen, [2]float64{x, y})
			return y
		}

		// None of these calls may panic, whatever the inputs.
		x := Bisect(cubic, lo, hi, tol)
		xd := BisectDecreasing(record, lo, hi, tol)
		xs := BisectDecreasingFrom(record, lo, hi, x0, record(x0), tol)

		finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
		if !finite(lo) || !finite(hi) {
			return // containment is only meaningful for a real interval
		}
		l, h := math.Min(lo, hi), math.Max(lo, hi)
		// Slack for the final midpoint arithmetic at extreme magnitudes.
		slack := 1e-9 * (1 + math.Abs(l) + math.Abs(h))
		if finite(x) && (x < l-slack || x > h+slack) {
			t.Fatalf("Bisect escaped the bracket: x=%g outside [%g, %g] (a=%g b=%g c=%g tol=%g)", x, l, h, a, b, c, tol)
		}
		if finite(xd) && (xd < l-slack || xd > h+slack) {
			t.Fatalf("BisectDecreasing escaped the bracket: x=%g outside [%g, %g] (a=%g b=%g c=%g tol=%g)", xd, l, h, a, b, c, tol)
		}
		if finite(xs) && (xs < l-slack || xs > h+slack) {
			t.Fatalf("BisectDecreasingFrom escaped the bracket: x=%g outside [%g, %g] (a=%g b=%g c=%g tol=%g x0=%g)", xs, l, h, a, b, c, tol, x0)
		}

		// The contract holds for a function non-increasing at every point
		// either search evaluated: each sign BisectDecreasingFrom reads off
		// its bracket is then the sign BisectDecreasing evaluated. (A cubic
		// non-increasing over the bracket can still round to a non-monotone
		// function at the ulp scale; such inputs are skipped.)
		slices.SortFunc(seen, func(p, q [2]float64) int { return cmp.Compare(p[0], q[0]) })
		for i, p := range seen {
			if math.IsNaN(p[0]) || math.IsNaN(p[1]) || i > 0 && p[1] > seen[i-1][1] {
				return
			}
		}
		if math.Float64bits(xs) != math.Float64bits(xd) {
			t.Fatalf("BisectDecreasingFrom = %v, BisectDecreasing %v (a=%g b=%g c=%g lo=%g hi=%g tol=%g x0=%g)", xs, xd, a, b, c, lo, hi, tol, x0)
		}
	})
}
