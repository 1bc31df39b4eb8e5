package traffic

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"github.com/netecon-sim/publicoption/internal/demand"
	"github.com/netecon-sim/publicoption/internal/numeric"
)

func TestCPValidate(t *testing.T) {
	good := Google()
	if err := good.Validate(); err != nil {
		t.Fatalf("archetype invalid: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*CP)
	}{
		{"alpha-zero", func(c *CP) { c.Alpha = 0 }},
		{"alpha-above-1", func(c *CP) { c.Alpha = 1.1 }},
		{"thetahat-zero", func(c *CP) { c.ThetaHat = 0 }},
		{"thetahat-negative", func(c *CP) { c.ThetaHat = -1 }},
		{"v-negative", func(c *CP) { c.V = -0.1 }},
		{"phi-negative", func(c *CP) { c.Phi = -0.1 }},
		{"nil-curve", func(c *CP) { c.Curve = nil }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cp := Google()
			tc.mutate(&cp)
			if err := cp.Validate(); err == nil {
				t.Fatal("expected validation error")
			}
		})
	}
}

func TestRhoProperties(t *testing.T) {
	cp := Netflix()
	if got := cp.Rho(0); got != 0 {
		t.Errorf("Rho(0) = %v, want 0", got)
	}
	// At full throughput, everyone stays: ρ = θ̂.
	if got := cp.Rho(cp.ThetaHat); math.Abs(got-cp.ThetaHat) > 1e-9 {
		t.Errorf("Rho(θ̂) = %v, want %v", got, cp.ThetaHat)
	}
	// Above θ̂ the rate clamps (Axiom 1).
	if got := cp.Rho(2 * cp.ThetaHat); math.Abs(got-cp.ThetaHat) > 1e-9 {
		t.Errorf("Rho(2θ̂) = %v, want %v", got, cp.ThetaHat)
	}
}

func TestPerCapitaRateScalesWithAlpha(t *testing.T) {
	cp := Skype()
	theta := 0.8 * cp.ThetaHat
	if got, want := cp.PerCapitaRate(theta), cp.Alpha*cp.Rho(theta); math.Abs(got-want) > 1e-12 {
		t.Errorf("PerCapitaRate = %v, want %v", got, want)
	}
}

func TestUnconstrainedPerCapitaRate(t *testing.T) {
	pop := Archetypes()
	// 1*1000 + 0.3*10000 + 0.5*3000 = 5500 Kbps, the paper's saturation
	// point for Figure 3 (its axis runs to 6000).
	if got := pop.TotalUnconstrainedPerCapita(); math.Abs(got-5500) > 1e-9 {
		t.Fatalf("total unconstrained per-capita = %v, want 5500", got)
	}
}

func TestArchetypeParametersMatchPaper(t *testing.T) {
	g, n, s := Google(), Netflix(), Skype()
	checks := []struct {
		name      string
		got, want float64
	}{
		{"google-alpha", g.Alpha, 1},
		{"netflix-alpha", n.Alpha, 0.3},
		{"skype-alpha", s.Alpha, 0.5},
		{"google-thetahat", g.ThetaHat, 1000},
		{"netflix-thetahat", n.ThetaHat, 10000},
		{"skype-thetahat", s.ThetaHat, 3000},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
	betas := map[string]float64{"google": 0.1, "netflix": 3, "skype": 5}
	for _, cp := range Archetypes() {
		beta, ok := cp.Beta()
		if !ok {
			t.Fatalf("%s: non-exponential curve", cp.Name)
		}
		if beta != betas[cp.Name] {
			t.Errorf("%s β = %v, want %v", cp.Name, beta, betas[cp.Name])
		}
	}
}

func TestPaperEnsembleStatistics(t *testing.T) {
	pop := PaperPopulation(PhiCorrelated)
	if len(pop) != 1000 {
		t.Fatalf("population size %d, want 1000", len(pop))
	}
	if err := pop.Validate(); err != nil {
		t.Fatal(err)
	}
	// E[Σ α θ̂] = 1000 · 1/4 = 250 (§III-E); the realized draw should be
	// within a few percent.
	total := pop.TotalUnconstrainedPerCapita()
	if total < 225 || total > 275 {
		t.Errorf("total unconstrained per-capita = %v, want ≈ 250", total)
	}
	var alphaSum, vSum, betaSum float64
	for i := range pop {
		alphaSum += pop[i].Alpha
		vSum += pop[i].V
		beta, _ := pop[i].Beta()
		betaSum += beta
	}
	if m := alphaSum / 1000; m < 0.45 || m > 0.55 {
		t.Errorf("mean α = %v, want ≈ 0.5", m)
	}
	if m := vSum / 1000; m < 0.45 || m > 0.55 {
		t.Errorf("mean v = %v, want ≈ 0.5", m)
	}
	if m := betaSum / 1000; m < 4.5 || m > 5.5 {
		t.Errorf("mean β = %v, want ≈ 5", m)
	}
}

func TestPhiSettings(t *testing.T) {
	corr := PaperPopulation(PhiCorrelated)
	indep := PaperPopulation(PhiIndependent)
	if len(corr) != len(indep) {
		t.Fatal("settings should share population size")
	}
	// The appendix keeps CP characteristics identical and only redraws φ.
	for i := range corr {
		if corr[i].Alpha != indep[i].Alpha || corr[i].ThetaHat != indep[i].ThetaHat || corr[i].V != indep[i].V {
			t.Fatalf("CP %d characteristics differ between φ settings", i)
		}
		beta, _ := corr[i].Beta()
		if corr[i].Phi > beta {
			t.Fatalf("correlated φ=%v exceeds β=%v", corr[i].Phi, beta)
		}
		if indep[i].Phi > 10 {
			t.Fatalf("independent φ=%v exceeds 10", indep[i].Phi)
		}
	}
	// φ must actually differ between the settings for most CPs.
	differ := 0
	for i := range corr {
		if corr[i].Phi != indep[i].Phi {
			differ++
		}
	}
	if differ < 900 {
		t.Errorf("only %d/1000 φ values differ between settings", differ)
	}
}

func TestEnsembleDeterminism(t *testing.T) {
	a := PaperEnsemble(PhiCorrelated).Generate(numeric.NewRNG(7))
	b := PaperEnsemble(PhiCorrelated).Generate(numeric.NewRNG(7))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("CP %d differs across identical seeds", i)
		}
	}
	c := PaperEnsemble(PhiCorrelated).Generate(numeric.NewRNG(8))
	same := 0
	for i := range a {
		if a[i].Alpha == c[i].Alpha {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds produced %d identical α draws", same)
	}
}

func TestSubsetAndNames(t *testing.T) {
	pop := Archetypes()
	names := pop.Names()
	if strings.Join(names, ",") != "google,netflix,skype" {
		t.Fatalf("Names = %v", names)
	}
}

func TestCPNameIsSprintf(t *testing.T) {
	for _, i := range []int{0, 9, 999, 9999, 10000, 123456} {
		if got, want := CPName(i), fmt.Sprintf("cp-%04d", i); got != want {
			t.Errorf("CPName(%d) = %q, want %q", i, got, want)
		}
	}
	pop := PaperEnsemble(PhiCorrelated).Generate(numeric.NewRNG(1))
	for _, i := range []int{0, 9, 999} {
		if want := fmt.Sprintf("cp-%04d", i); pop[i].Name != want {
			t.Errorf("Generate named CP %d %q, want %q", i, pop[i].Name, want)
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	pop := PaperEnsemble(PhiCorrelated).Generate(numeric.NewRNG(3))[:50]
	var buf bytes.Buffer
	if err := WriteCSV(&buf, pop); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(pop) {
		t.Fatalf("round trip size %d, want %d", len(back), len(pop))
	}
	for i := range pop {
		if pop[i] != back[i] {
			t.Fatalf("CP %d did not round-trip: %+v vs %+v", i, pop[i], back[i])
		}
	}
}

func TestWriteCSVRejectsNonExponential(t *testing.T) {
	pop := Population{{
		Name: "odd", Alpha: 0.5, ThetaHat: 1, V: 0, Phi: 0,
		Curve: demand.Constant{},
	}}
	if err := WriteCSV(&bytes.Buffer{}, pop); err == nil {
		t.Fatal("expected serialization error for non-exponential curve")
	}
}

func TestReadCSVRejectsGarbage(t *testing.T) {
	cases := []string{
		"",         // no header
		"x,y\n1,2", // wrong column count
		"name,alpha,theta_hat,v,phi,beta\nbad,notanumber,1,1,1,1", // parse error
		"name,alpha,theta_hat,v,phi,beta\nbad,2,1,1,1,1",          // invalid α
	}
	for i, src := range cases {
		if _, err := ReadCSV(strings.NewReader(src)); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

// Property: ρ is non-decreasing in θ for random ensemble CPs (this is
// Assumption 1 lifted through Eq. 5, the property the equilibrium solver
// depends on).
func TestRhoMonotoneQuick(t *testing.T) {
	rng := numeric.NewRNG(55)
	pop := PaperEnsemble(PhiCorrelated).Generate(rng)
	f := func() bool {
		cp := &pop[rng.Intn(len(pop))]
		a := rng.Uniform(0, cp.ThetaHat)
		b := rng.Uniform(0, cp.ThetaHat)
		if a > b {
			a, b = b, a
		}
		return cp.Rho(a) <= cp.Rho(b)+1e-12
	}
	if err := quick.Check(func() bool { return f() }, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}
