package econ

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/netecon-sim/publicoption/internal/alloc"
	"github.com/netecon-sim/publicoption/internal/numeric"
	"github.com/netecon-sim/publicoption/internal/traffic"
)

func ensemble(seed uint64, n int) traffic.Population {
	cfg := traffic.PaperEnsemble(traffic.PhiCorrelated)
	cfg.N = n
	return cfg.Generate(numeric.NewRNG(seed))
}

func TestPhiAtSaturation(t *testing.T) {
	pop := traffic.Archetypes()
	total := pop.TotalUnconstrainedPerCapita()
	phi := PhiAt(alloc.MaxMin{}, total, pop)
	if want := MaxPhi(pop); math.Abs(phi-want) > 1e-9*want {
		t.Fatalf("Φ at saturation = %v, want MaxPhi = %v", phi, want)
	}
	// Beyond saturation Φ stays at the maximum.
	if phi2 := PhiAt(alloc.MaxMin{}, 2*total, pop); math.Abs(phi2-phi) > 1e-12 {
		t.Fatalf("Φ beyond saturation moved: %v vs %v", phi2, phi)
	}
}

func TestPhiZeroCapacity(t *testing.T) {
	if phi := PhiAt(alloc.MaxMin{}, 0, traffic.Archetypes()); phi != 0 {
		t.Fatalf("Φ(0) = %v, want 0", phi)
	}
}

func TestPhiHandComputed(t *testing.T) {
	// Single CP with constant demand: Φ = φ·α·θ with θ = min(ν/..., θ̂).
	// With d ≡ 1 the equilibrium under max-min gives α·θ = min(ν, α·θ̂).
	pop := traffic.Population{{
		Name: "one", Alpha: 0.5, ThetaHat: 10, V: 1, Phi: 2,
		Curve: constantCurve{},
	}}
	// Congested: ν = 2 < α·θ̂ = 5, so α·d·θ = 2, Φ = φ·2 = 4.
	if phi := PhiAt(alloc.MaxMin{}, 2, pop); math.Abs(phi-4) > 1e-9 {
		t.Fatalf("Φ = %v, want 4", phi)
	}
	// Uncongested: Φ = φ·α·θ̂ = 2·5 = 10.
	if phi := PhiAt(alloc.MaxMin{}, 100, pop); math.Abs(phi-10) > 1e-9 {
		t.Fatalf("Φ = %v, want 10", phi)
	}
}

type constantCurve struct{}

func (constantCurve) At(omega float64) float64 {
	if omega < 0 {
		return 0
	}
	return 1
}
func (constantCurve) Name() string { return "const" }

func TestRevenueLinearInPrice(t *testing.T) {
	pop := ensemble(5, 50)
	res := alloc.Solve(alloc.MaxMin{}, 3, pop)
	r1 := Revenue(res, 0.2)
	r2 := Revenue(res, 0.4)
	if math.Abs(r2-2*r1) > 1e-12*math.Max(r2, 1) {
		t.Fatalf("revenue not linear in c: %v vs %v", r1, r2)
	}
	if Revenue(res, 0) != 0 {
		t.Fatal("zero price must give zero revenue")
	}
}

func TestRevenueEqualsPriceTimesThroughputWhenCongested(t *testing.T) {
	pop := ensemble(6, 80)
	nu := 0.3 * pop.TotalUnconstrainedPerCapita()
	res := alloc.Solve(alloc.MaxMin{}, nu, pop)
	// Work conservation: revenue = c·ν when the class is congested (the
	// paper's "Ψ = cν" regime in Figure 4).
	if got, want := Revenue(res, 0.7), 0.7*nu; math.Abs(got-want) > 1e-6*want {
		t.Fatalf("Ψ = %v, want c·ν = %v", got, want)
	}
}

func TestCPUtilityPerCapita(t *testing.T) {
	pop := traffic.Archetypes()
	cp := &pop[0]
	theta := cp.ThetaHat // uncongested
	u := CPUtilityPerCapita(cp, theta, 0)
	if want := cp.V * cp.Alpha * cp.ThetaHat; math.Abs(u-want) > 1e-12 {
		t.Fatalf("ordinary utility = %v, want %v", u, want)
	}
	up := CPUtilityPerCapita(cp, theta, 0.3)
	if want := (cp.V - 0.3) * cp.Alpha * cp.ThetaHat; math.Abs(up-want) > 1e-12 {
		t.Fatalf("premium utility = %v, want %v", up, want)
	}
	// Price above v makes premium utility negative.
	if CPUtilityPerCapita(cp, theta, cp.V+0.5) >= 0 {
		t.Fatal("utility should be negative when c > v")
	}
}

func TestWelfareDecomposition(t *testing.T) {
	pop := ensemble(9, 60)
	nu := 0.5 * pop.TotalUnconstrainedPerCapita()
	res := alloc.Solve(alloc.MaxMin{}, nu, pop)
	c := 0.25
	w := WelfareOf(res, c)
	// The transfer identity: ISP revenue + CP utilities = Σ v_i·α_i·ρ_i,
	// independent of c.
	gross := 0.0
	for i := range pop {
		gross += pop[i].V * res.PerCapitaRate(i)
	}
	if math.Abs(w.ISP+w.CPs-gross) > 1e-9*math.Max(gross, 1) {
		t.Fatalf("ISP+CPs = %v, want gross CP value %v", w.ISP+w.CPs, gross)
	}
	if total := w.Consumer + w.ISP + w.CPs; math.Abs(total-(w.Consumer+gross)) > 1e-9 {
		t.Fatalf("total welfare %v should equal Φ + gross %v", total, w.Consumer+gross)
	}
}

// Theorem 2: Φ(ν) non-decreasing, strictly increasing below saturation.
func TestTheorem2OnPaperWorkloads(t *testing.T) {
	pops := map[string]traffic.Population{
		"archetypes": traffic.Archetypes(),
		"ensemble":   ensemble(11, 100),
	}
	for name, pop := range pops {
		total := pop.TotalUnconstrainedPerCapita()
		grid := numeric.Linspace(0, 1.3*total, 80)
		if err := CheckTheorem2(alloc.MaxMin{}, pop, grid, 0); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestTheorem2AcrossMechanisms(t *testing.T) {
	pop := ensemble(13, 40)
	total := pop.TotalUnconstrainedPerCapita()
	grid := numeric.Linspace(0, 1.2*total, 50)
	for _, a := range []alloc.Allocator{
		alloc.MaxMin{},
		alloc.AlphaFair{Alpha: 1},
		alloc.AlphaFair{Alpha: 2, Weights: alloc.WeightByThetaHat},
		alloc.PerCPMaxMin{},
	} {
		if err := CheckTheorem2(a, pop, grid, 1e-6); err != nil {
			t.Errorf("%s: %v", a.Name(), err)
		}
	}
}

// Property: Φ is monotone in ν for random ensembles (Theorem 2, sampled).
func TestPhiMonotoneQuick(t *testing.T) {
	rng := numeric.NewRNG(91)
	f := func() bool {
		pop := ensemble(rng.Uint64(), 1+rng.Intn(25))
		total := pop.TotalUnconstrainedPerCapita()
		a := rng.Uniform(0, 1.2*total)
		b := rng.Uniform(0, 1.2*total)
		if a > b {
			a, b = b, a
		}
		return PhiAt(alloc.MaxMin{}, a, pop) <= PhiAt(alloc.MaxMin{}, b, pop)+1e-9
	}
	if err := quick.Check(func() bool { return f() }, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: welfare transfer identity holds for random prices.
func TestWelfareTransferIdentityQuick(t *testing.T) {
	rng := numeric.NewRNG(93)
	pop := ensemble(17, 50)
	nu := 0.4 * pop.TotalUnconstrainedPerCapita()
	res := alloc.Solve(alloc.MaxMin{}, nu, pop)
	total := func(w Welfare) float64 { return w.Consumer + w.ISP + w.CPs }
	w0 := total(WelfareOf(res, 0))
	f := func() bool {
		c := rng.Uniform(0, 2)
		w := total(WelfareOf(res, c))
		return math.Abs(w-w0) < 1e-9*math.Max(w0, 1)
	}
	if err := quick.Check(func() bool { return f() }, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
