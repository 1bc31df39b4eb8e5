package numeric

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSumCompensated(t *testing.T) {
	// Naive summation of this sequence loses the small terms; Kahan keeps
	// them.
	xs := make([]float64, 0, 2001)
	xs = append(xs, 1e16)
	for i := 0; i < 1000; i++ {
		xs = append(xs, 1.0)
	}
	xs = append(xs, -1e16)
	for i := 0; i < 1000; i++ {
		xs = append(xs, 1.0)
	}
	if got := Sum(xs); got != 2000 {
		t.Fatalf("Sum = %v, want 2000", got)
	}
}

func TestMean(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Fatalf("Mean = %v, want 5", m)
	}
}

func TestMeanEmpty(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil) should be 0")
	}
}

func TestMinMax(t *testing.T) {
	lo, hi := MinMax([]float64{3, -1, 7, 0})
	if lo != -1 || hi != 7 {
		t.Fatalf("MinMax = %v,%v", lo, hi)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	// Interpolated value between order statistics.
	if got := Quantile([]float64{0, 10}, 0.35); math.Abs(got-3.5) > 1e-12 {
		t.Errorf("Quantile interp = %v, want 3.5", got)
	}
}

func TestJainIndex(t *testing.T) {
	if j := JainIndex([]float64{1, 1, 1, 1}); math.Abs(j-1) > 1e-12 {
		t.Fatalf("equal shares Jain = %v, want 1", j)
	}
	if j := JainIndex([]float64{1, 0, 0, 0}); math.Abs(j-0.25) > 1e-12 {
		t.Fatalf("single-flow Jain = %v, want 0.25", j)
	}
	if j := JainIndex(nil); j != 1 {
		t.Fatalf("empty Jain = %v, want 1", j)
	}
	if j := JainIndex([]float64{0, 0}); j != 1 {
		t.Fatalf("all-zero Jain = %v, want 1", j)
	}
}

func TestLinspace(t *testing.T) {
	xs := Linspace(0, 1, 5)
	want := []float64{0, 0.25, 0.5, 0.75, 1}
	for i := range want {
		if math.Abs(xs[i]-want[i]) > 1e-15 {
			t.Fatalf("Linspace = %v", xs)
		}
	}
	if xs[len(xs)-1] != 1 {
		t.Fatal("Linspace must hit hi exactly")
	}
}

func TestArgMax(t *testing.T) {
	if i := ArgMax([]float64{1, 5, 3, 5}); i != 1 {
		t.Fatalf("ArgMax = %d, want first max index 1", i)
	}
}

func TestMaxDownwardGap(t *testing.T) {
	if g := MaxDownwardGap([]float64{1, 2, 3, 4}); g != 0 {
		t.Fatalf("monotone curve gap = %v, want 0", g)
	}
	if g := MaxDownwardGap([]float64{1, 5, 2, 4, 3}); g != 3 {
		t.Fatalf("gap = %v, want 3 (from 5 down to 2)", g)
	}
	if g := MaxDownwardGap([]float64{2, 1, 5, 0}); g != 5 {
		t.Fatalf("gap = %v, want 5", g)
	}
	if g := MaxDownwardGap(nil); g != 0 {
		t.Fatalf("empty gap = %v", g)
	}
}

func TestAlmostEqual(t *testing.T) {
	if !AlmostEqual(1, 1+1e-12, 1e-9) {
		t.Fatal("near-equal rejected")
	}
	if AlmostEqual(1, 2, 1e-9) {
		t.Fatal("distinct values accepted")
	}
	if !AlmostEqual(1e12, 1e12*(1+1e-12), 1e-9) {
		t.Fatal("relative tolerance not applied for large magnitudes")
	}
}

// Property: Jain index is scale invariant and bounded in [1/n, 1].
func TestJainIndexPropertiesQuick(t *testing.T) {
	r := NewRNG(37)
	f := func() bool {
		n := 1 + r.Intn(20)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.Uniform(0, 100)
		}
		j := JainIndex(xs)
		if j < 1/float64(n)-1e-12 || j > 1+1e-12 {
			return false
		}
		scaled := make([]float64, n)
		for i := range xs {
			scaled[i] = 7.5 * xs[i]
		}
		return math.Abs(JainIndex(scaled)-j) < 1e-9
	}
	if err := quick.Check(func() bool { return f() }, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: MaxDownwardGap is zero exactly when the sequence is
// non-decreasing (up to ordering of random sequences).
func TestGapZeroIffMonotoneQuick(t *testing.T) {
	r := NewRNG(41)
	f := func() bool {
		n := 2 + r.Intn(30)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.Uniform(0, 10)
		}
		gap := MaxDownwardGap(xs)
		mono := true
		for i := 1; i < n; i++ {
			mono = mono && xs[i] >= xs[i-1]
		}
		if mono && gap != 0 {
			return false
		}
		if !mono && gap <= 0 {
			return false
		}
		return true
	}
	if err := quick.Check(func() bool { return f() }, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
