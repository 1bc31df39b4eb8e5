package numeric

import (
	"math"
	"testing"
	"testing/quick"
)

func TestBisectLinear(t *testing.T) {
	root := Bisect(func(x float64) float64 { return x - 3 }, 0, 10, 1e-12)
	if math.Abs(root-3) > 1e-9 {
		t.Fatalf("root = %v, want 3", root)
	}
}

func TestBisectClampsLow(t *testing.T) {
	// f(lo) >= 0 already: the boundary is the answer.
	root := Bisect(func(x float64) float64 { return x + 1 }, 0, 10, 0)
	if root != 0 {
		t.Fatalf("root = %v, want clamp at 0", root)
	}
}

func TestBisectClampsHigh(t *testing.T) {
	root := Bisect(func(x float64) float64 { return x - 20 }, 0, 10, 0)
	if root != 10 {
		t.Fatalf("root = %v, want clamp at 10", root)
	}
}

func TestBisectSwappedBounds(t *testing.T) {
	root := Bisect(func(x float64) float64 { return x - 3 }, 10, 0, 1e-12)
	if math.Abs(root-3) > 1e-9 {
		t.Fatalf("root = %v, want 3 with swapped bounds", root)
	}
}

func TestBisectDecreasing(t *testing.T) {
	root := BisectDecreasing(func(x float64) float64 { return 5 - x }, 0, 10, 1e-12)
	if math.Abs(root-5) > 1e-9 {
		t.Fatalf("root = %v, want 5", root)
	}
}

func TestBisectNonlinearMonotone(t *testing.T) {
	// x^3 + x - 10 = 0 has root ~1.8637.
	f := func(x float64) float64 { return x*x*x + x - 10 }
	root := Bisect(f, 0, 5, 1e-12)
	if math.Abs(f(root)) > 1e-8 {
		t.Fatalf("f(root) = %v, not a root", f(root))
	}
}

// Property: for random monotone cubics with a root inside the interval,
// Bisect finds it.
func TestBisectFindsRootQuick(t *testing.T) {
	r := NewRNG(31)
	f := func() bool {
		a := r.Uniform(0.1, 3) // slope
		b := r.Uniform(-5, 5)  // root location
		g := func(x float64) float64 { return a * (x - b) * (1 + (x-b)*(x-b)) }
		return math.Abs(Bisect(g, -10, 10, 1e-12)-b) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestBisectDecreasingFromIsBisection pins BisectDecreasingFrom's
// contract on non-increasing functions of every shape the migration search
// meets and some it does not: the answer is BisectDecreasing's bit for
// bit, wherever the seed lies, and the search never costs more than
// BisectDecreasing plus secantCredit evaluations.
func TestBisectDecreasingFromIsBisection(t *testing.T) {
	const root = 0.3141592653589793
	funcs := []struct {
		name string
		f    func(float64) float64
	}{
		{"smooth", func(x float64) float64 { return math.Exp(-3*x) - math.Exp(-3*root) }},
		{"linear", func(x float64) float64 { return root - x }},
		{"steep", func(x float64) float64 { return -math.Sinh(40 * (x - root)) }},
		{"flat-root", func(x float64) float64 { d := root - x; return d * d * d }},
		{"kinked", func(x float64) float64 {
			if x < root {
				return 50 * (root - x)
			}
			return 0.02 * (root - x)
		}},
		{"step", func(x float64) float64 {
			if x < root {
				return 1
			}
			return -1
		}},
		{"plateau", func(x float64) float64 { // zero on [root, root+0.1]
			switch {
			case x < root:
				return root - x
			case x > root+0.1:
				return root + 0.1 - x
			}
			return 0
		}},
		{"exact-zero", func(float64) float64 { return 0 }},
		{"positive", func(x float64) float64 { return 2 - x }},
		{"negative", func(x float64) float64 { return -1 - x }},
	}
	brackets := []struct{ lo, hi, tol float64 }{
		{0, 1, 1e-7},
		{1e-9, 1 - 1e-9, 1e-8},
		{1, 0, 1e-6},             // inverted
		{-2, 3, 0},               // tol defaulted
		{-1, 1, -1},              // negative tol defaulted
		{root, root, 1e-9},       // degenerate
		{0.2, 0.2 + 1e-12, 1e-7}, // narrower than tol
	}
	for _, fn := range funcs {
		for _, br := range brackets {
			var bisectEvals int
			want := BisectDecreasing(func(x float64) float64 { bisectEvals++; return fn.f(x) }, br.lo, br.hi, br.tol)
			for _, x0 := range []float64{root, br.lo, br.hi, (br.lo + br.hi) / 2, br.lo - 1, br.hi + 5, math.NaN()} {
				var evals int
				counted := func(x float64) float64 {
					evals++
					if x < math.Min(br.lo, br.hi) || x > math.Max(br.lo, br.hi) {
						t.Errorf("%s on [%v, %v]: evaluated outside the bracket at %v", fn.name, br.lo, br.hi, x)
					}
					return fn.f(x)
				}
				got := BisectDecreasingFrom(counted, br.lo, br.hi, x0, fn.f(x0), br.tol)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("%s on [%v, %v] tol %v from x0=%v: %v, BisectDecreasing %v", fn.name, br.lo, br.hi, br.tol, x0, got, want)
				}
				if evals > bisectEvals+secantCredit {
					t.Errorf("%s on [%v, %v] tol %v from x0=%v: %d evaluations, BisectDecreasing %d", fn.name, br.lo, br.hi, br.tol, x0, evals, bisectEvals)
				}
				// A secant point on the zero plateau evaluates the midpoint
				// instead of crawling along the plateau in tol/128 steps.
				if fn.name == "plateau" && evals > bisectEvals {
					t.Errorf("plateau on [%v, %v] tol %v from x0=%v: %d evaluations, more than BisectDecreasing's %d", br.lo, br.hi, br.tol, x0, evals, bisectEvals)
				}
				if br.lo == 0 && br.hi == 1 && x0 == 0.5 {
					t.Logf("%s: %d evaluations, BisectDecreasing %d", fn.name, evals, bisectEvals)
				}
			}
		}
	}
}
