package alloc

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/netecon-sim/publicoption/internal/numeric"
	"github.com/netecon-sim/publicoption/internal/traffic"
)

func TestAllMechanismsSatisfyAxioms(t *testing.T) {
	pops := map[string]traffic.Population{
		"archetypes": traffic.Archetypes(),
		"ensemble":   smallEnsemble(21, 60),
	}
	mechanisms := []Allocator{
		MaxMin{},
		AlphaFair{Alpha: 1},
		AlphaFair{Alpha: 2},
		AlphaFair{Alpha: 1, Weights: WeightByThetaHat},
		PerCPMaxMin{},
	}
	for popName, pop := range pops {
		total := pop.TotalUnconstrainedPerCapita()
		grid := numeric.Linspace(0, 1.2*total, 41)
		for _, mech := range mechanisms {
			reports := CheckAxioms(mech, pop, grid, 0)
			if ok, detail := AxiomsOK(reports); !ok {
				t.Errorf("%s on %s: %s", mech.Name(), popName, detail)
			}
		}
	}
}

// A deliberately broken mechanism: it wastes capacity (violates Axiom 2).
type wasteful struct{ MaxMin }

func (wasteful) RateAt(level float64, cp *traffic.CP) float64 {
	return 0.5 * MaxMin{}.RateAt(level, cp)
}

func (wasteful) Name() string { return "wasteful" }

func TestCheckAxiomsDetectsWorkConservationViolation(t *testing.T) {
	pop := traffic.Archetypes()
	grid := numeric.Linspace(100, 5000, 10)
	reports := CheckAxioms(wasteful{}, pop, grid, 0)
	ok, detail := AxiomsOK(reports)
	if ok {
		t.Fatal("wasteful mechanism passed the axiom check")
	}
	if !strings.Contains(detail, "axiom 2") {
		t.Fatalf("expected an Axiom 2 violation, got: %s", detail)
	}
}

// A mechanism that over-allocates beyond θ̂ (violates Axiom 1). Its LevelHi
// is inherited, so the bisection still terminates.
type overAllocating struct{ MaxMin }

func (overAllocating) RateAt(level float64, cp *traffic.CP) float64 {
	return level // no cap at θ̂
}

func (overAllocating) Name() string { return "over-allocating" }

func TestCheckAxiomsDetectsFeasibilityViolation(t *testing.T) {
	pop := traffic.Archetypes()
	grid := numeric.Linspace(100, 5800, 12)
	reports := CheckAxioms(overAllocating{}, pop, grid, 0)
	ok, detail := AxiomsOK(reports)
	if ok {
		t.Fatal("over-allocating mechanism passed the axiom check")
	}
	if !strings.Contains(detail, "axiom 1") && !strings.Contains(detail, "axiom 2") {
		t.Fatalf("expected Axiom 1/2 violation, got: %s", detail)
	}
}

func TestAxiomReportString(t *testing.T) {
	ok := AxiomReport{Axiom: 3, OK: true}
	if got := ok.String(); got != "axiom 3: ok" {
		t.Errorf("String() = %q", got)
	}
	bad := AxiomReport{Axiom: 2, OK: false, Detail: "x"}
	if got := bad.String(); !strings.Contains(got, "VIOLATED") {
		t.Errorf("String() = %q", got)
	}
}

func TestAxiom4ScaleInvarianceDirect(t *testing.T) {
	pop := smallEnsemble(33, 40)
	nu := 0.4 * pop.TotalUnconstrainedPerCapita()
	base := SolveSystem(MaxMin{}, 100, nu*100, pop)
	for _, xi := range []float64{0.01, 0.5, 2, 1000} {
		scaled := SolveSystem(MaxMin{}, 100*xi, nu*100*xi, pop)
		for i := range pop {
			if math.Abs(base.Theta[i]-scaled.Theta[i]) > 1e-9*math.Max(pop[i].ThetaHat, 1) {
				t.Fatalf("scale ξ=%v changes θ_%d: %v vs %v", xi, i, base.Theta[i], scaled.Theta[i])
			}
		}
	}
}

// TestZeroLevelGrantsNothing pins the Allocator contract that a level ≤ 0
// grants every CP rate 0, through both entry points: RateAt and EvalRate.
// Workspace.Solve's ν = 0 exit and the class game's κ = 1 shortcut return
// zero rates without asking the mechanism.
func TestZeroLevelGrantsNothing(t *testing.T) {
	pop := randomPopulation(rand.New(rand.NewSource(17)), 70) // every demand family
	mechanisms := []Allocator{
		MaxMin{},
		AlphaFair{Alpha: 1},
		AlphaFair{Alpha: 2},
		AlphaFair{Alpha: 1, Weights: WeightByThetaHat},
		PerCPMaxMin{},
	}
	for _, mech := range mechanisms {
		for _, level := range []float64{0, math.Copysign(0, -1), -1e-300, -1, math.Inf(-1)} {
			for i := range pop {
				if r := mech.RateAt(level, &pop[i]); r != 0 {
					t.Fatalf("%s: RateAt(%g, cp %d) = %g, want 0", mech.Name(), level, i, r)
				}
				if r := EvalRate(mech, level, &pop[i]); r != 0 {
					t.Fatalf("%s: EvalRate(%g, cp %d) = %g, want 0", mech.Name(), level, i, r)
				}
			}
		}
	}
}
