package numeric

import (
	"math"
	"testing"
)

// FuzzRootfind throws arbitrary cubics and brackets at the bisections.
// The contract under fuzzing: no input — including NaN, ±Inf, and inverted
// or degenerate brackets — may panic; and whenever the bracket is finite,
// every returned root lies inside it (the bisections clamp by contract).
func FuzzRootfind(f *testing.F) {
	f.Add(1.0, 0.0, -2.0, 0.0, 2.0, 1e-10)  // x³ = 2
	f.Add(0.5, -3.0, 1.0, -4.0, 4.0, 1e-8)  // three real roots
	f.Add(0.0, 0.0, 0.0, 0.0, 1.0, 1e-12)   // identically zero
	f.Add(0.0, 1.0, -0.25, -1.0, 1.0, 0.0)  // linear, tol defaulted
	f.Add(2.0, -1.0, 0.5, 3.0, -3.0, 1e-10) // inverted bracket
	f.Add(1.0, 1.0, 1.0, 5.0, 5.0, 1e-10)   // degenerate bracket
	f.Fuzz(func(t *testing.T, a, b, c, lo, hi, tol float64) {
		cubic := func(x float64) float64 { return ((a*x)*x+b)*x + c }

		// None of these calls may panic, whatever the inputs.
		x := Bisect(cubic, lo, hi, tol)
		xd := BisectDecreasing(cubic, lo, hi, tol)

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
	})
}
