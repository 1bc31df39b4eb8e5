package numeric

import (
	"errors"
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

func TestBrentAgainstKnownRoots(t *testing.T) {
	cases := []struct {
		name   string
		f      func(float64) float64
		lo, hi float64
		want   float64
	}{
		{"linear", func(x float64) float64 { return 2*x - 8 }, 0, 10, 4},
		{"cubic", func(x float64) float64 { return (x - 1) * (x - 1) * (x - 1) }, 0, 3, 1},
		{"transcendental", func(x float64) float64 { return math.Exp(x) - 5 }, 0, 3, math.Log(5)},
		{"cos", math.Cos, 1, 2, math.Pi / 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			root, err := Brent(tc.f, tc.lo, tc.hi, 1e-13)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(root-tc.want) > 1e-8 {
				t.Fatalf("root = %v, want %v", root, tc.want)
			}
		})
	}
}

func TestBrentNoBracket(t *testing.T) {
	_, err := Brent(func(x float64) float64 { return 1 + x*x }, -1, 1, 0)
	if !errors.Is(err, ErrNoBracket) {
		t.Fatalf("err = %v, want ErrNoBracket", err)
	}
}

func TestBrentEndpointRoot(t *testing.T) {
	root, err := Brent(func(x float64) float64 { return x }, 0, 1, 0)
	if err != nil || root != 0 {
		t.Fatalf("root, err = %v, %v; want 0, nil", root, err)
	}
}

// Property: for random monotone cubics with a root inside the interval,
// Bisect and Brent agree.
func TestBisectBrentAgreeQuick(t *testing.T) {
	r := NewRNG(31)
	f := func() bool {
		a := r.Uniform(0.1, 3) // slope
		b := r.Uniform(-5, 5)  // root location
		g := func(x float64) float64 { return a * (x - b) * (1 + (x-b)*(x-b)) }
		bis := Bisect(g, -10, 10, 1e-12)
		bre, err := Brent(g, -10, 10, 1e-12)
		if err != nil {
			return false
		}
		return math.Abs(bis-bre) < 1e-6 && math.Abs(bis-b) < 1e-6
	}
	check := func() bool { return f() }
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestFixedPointConverges(t *testing.T) {
	// x = cos(x) has the Dottie number fixed point ~0.739085.
	x, ok := FixedPoint(math.Cos, 0.5, 1, 1e-12, 1000)
	if !ok {
		t.Fatal("did not converge")
	}
	if math.Abs(x-0.7390851332151607) > 1e-9 {
		t.Fatalf("fixed point = %v", x)
	}
}

func TestFixedPointDampingStabilizes(t *testing.T) {
	// g(x) = -x oscillates forever undamped, but converges to 0 with damping.
	g := func(x float64) float64 { return -x }
	if _, ok := FixedPoint(g, 1, 1, 1e-12, 100); ok {
		t.Fatal("undamped iteration on g(x)=-x should not converge")
	}
	x, ok := FixedPoint(g, 1, 0.5, 1e-12, 100)
	if !ok || math.Abs(x) > 1e-9 {
		t.Fatalf("damped iteration: x=%v ok=%v", x, ok)
	}
}

func TestFixedPointReportsNonConvergence(t *testing.T) {
	g := func(x float64) float64 { return x + 1 } // no fixed point
	if _, ok := FixedPoint(g, 0, 1, 1e-12, 50); ok {
		t.Fatal("divergent map reported convergence")
	}
}
