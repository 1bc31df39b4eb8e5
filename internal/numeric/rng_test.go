package numeric

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestRNGSeedSensitivity(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical draws in 100", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 100000; i++ {
		x := r.Float64()
		if x < 0 || x >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", x)
		}
	}
}

func TestFloat64Moments(t *testing.T) {
	r := NewRNG(99)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := r.Float64()
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("uniform mean = %v, want ~0.5", mean)
	}
	if math.Abs(variance-1.0/12) > 0.01 {
		t.Errorf("uniform variance = %v, want ~%v", variance, 1.0/12)
	}
}

func TestUniformBounds(t *testing.T) {
	r := NewRNG(5)
	for i := 0; i < 10000; i++ {
		x := r.Uniform(-3, 7)
		if x < -3 || x >= 7 {
			t.Fatalf("Uniform(-3,7) out of range: %v", x)
		}
	}
}

func TestUniformPanicsOnBadRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for hi < lo")
		}
	}()
	NewRNG(1).Uniform(1, 0)
}

func TestUniformOpenExcludesLo(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		if x := r.UniformOpen(0, 1); x == 0 {
			t.Fatal("UniformOpen returned the open endpoint")
		}
	}
}

func TestIntnUniformity(t *testing.T) {
	r := NewRNG(11)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		v := r.Intn(n)
		if v < 0 || v >= n {
			t.Fatalf("Intn(%d) = %d out of range", n, v)
		}
		counts[v]++
	}
	want := float64(draws) / n
	for v, c := range counts {
		if math.Abs(float64(c)-want) > 0.05*want {
			t.Errorf("Intn bucket %d count %d deviates >5%% from %v", v, c, want)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for n <= 0")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(13)
	for trial := 0; trial < 50; trial++ {
		p := r.Perm(20)
		seen := make([]bool, 20)
		for _, v := range p {
			if v < 0 || v >= 20 || seen[v] {
				t.Fatalf("not a permutation: %v", p)
			}
			seen[v] = true
		}
	}
}

func TestExpMean(t *testing.T) {
	r := NewRNG(17)
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Exp(2)
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.02 {
		t.Errorf("Exp(2) mean = %v, want ~0.5", mean)
	}
}

func TestBoolProbability(t *testing.T) {
	r := NewRNG(23)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	if p := float64(hits) / n; math.Abs(p-0.3) > 0.01 {
		t.Errorf("Bool(0.3) frequency = %v", p)
	}
}

// Property: Uniform always lands inside its interval for arbitrary valid
// bounds.
func TestUniformPropertyQuick(t *testing.T) {
	r := NewRNG(29)
	f := func(a, b float64) bool {
		lo, hi := a, b
		if math.IsNaN(lo) || math.IsNaN(hi) || math.IsInf(lo, 0) || math.IsInf(hi, 0) {
			return true
		}
		if lo > hi {
			lo, hi = hi, lo
		}
		if math.IsInf(hi-lo, 0) {
			// Outside Uniform's documented domain (range must be
			// representable as a float64).
			return true
		}
		x := r.Uniform(lo, hi)
		return x >= lo && (x < hi || lo == hi)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
