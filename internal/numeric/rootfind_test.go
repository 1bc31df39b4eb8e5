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
