package publicoption_test

import (
	"math"
	"strings"
	"testing"

	publicoption "github.com/netecon-sim/publicoption"
)

func TestFacadeQuickstartFlow(t *testing.T) {
	pop := publicoption.Archetypes()
	eq := publicoption.RateEquilibrium(2000, pop)
	if len(eq.Theta) != 3 {
		t.Fatalf("got %d throughputs", len(eq.Theta))
	}
	phi := publicoption.ConsumerSurplus(eq)
	if phi <= 0 || phi > publicoption.MaxConsumerSurplus(pop) {
		t.Fatalf("Φ = %v outside (0, max]", phi)
	}
	// Absolute-scale equivalence.
	abs := publicoption.SolveSystem(publicoption.MaxMin{}, 500, 2000*500, pop)
	for i := range eq.Theta {
		if math.Abs(abs.Theta[i]-eq.Theta[i]) > 1e-9 {
			t.Fatalf("SolveSystem disagrees with per-capita at CP %d", i)
		}
	}
}

func TestFacadeMechanisms(t *testing.T) {
	pop := publicoption.Archetypes()
	for _, a := range []publicoption.Allocator{
		publicoption.MaxMin{},
		publicoption.AlphaFair{Alpha: 2},
		publicoption.PerCPMaxMin{},
	} {
		eq := publicoption.RateEquilibriumUnder(a, 2000, pop)
		if agg := eq.Aggregate(); math.Abs(agg-2000) > 1e-3 {
			t.Errorf("%s: aggregate %v, want 2000", a.Name(), agg)
		}
	}
}

func TestFacadeEquilibriumWorkspace(t *testing.T) {
	pop := publicoption.Archetypes()
	w := publicoption.NewEquilibriumWorkspace(nil)
	for _, nu := range []float64{500, 1000, 2000} {
		got := w.Solve(nu, pop)
		want := publicoption.RateEquilibrium(nu, pop)
		if math.Abs(got.Level-want.Level) > 1e-9*math.Max(want.Level, 1) {
			t.Fatalf("ν=%g: workspace level %v, reference %v", nu, got.Level, want.Level)
		}
		for i := range want.Theta {
			if math.Abs(got.Theta[i]-want.Theta[i]) > 1e-9*math.Max(want.Theta[i], 1) {
				t.Fatalf("ν=%g: workspace θ_%d = %v, reference %v", nu, i, got.Theta[i], want.Theta[i])
			}
		}
	}
	kept := w.Solve(1000, pop).Clone()
	w.Solve(2000, pop) // rebinds the pooled result; the clone must not move
	if ref := publicoption.RateEquilibrium(1000, pop); math.Abs(kept.Aggregate()-ref.Aggregate()) > 1e-6 {
		t.Fatalf("cloned equilibrium drifted after workspace reuse")
	}
}

func TestFacadePopulations(t *testing.T) {
	if n := len(publicoption.PaperPopulation(publicoption.PhiCorrelated)); n != 1000 {
		t.Fatalf("paper population size %d", n)
	}
	pop := publicoption.GeneratePopulation(publicoption.PhiIndependent, 50, 3)
	if len(pop) != 50 {
		t.Fatalf("generated %d CPs", len(pop))
	}
	if err := pop.Validate(); err != nil {
		t.Fatal(err)
	}
	// Generation is deterministic per seed.
	again := publicoption.GeneratePopulation(publicoption.PhiIndependent, 50, 3)
	for i := range pop {
		if pop[i] != again[i] {
			t.Fatal("GeneratePopulation not deterministic")
		}
	}
}

func TestFacadeMonopolyAndWelfare(t *testing.T) {
	pop := publicoption.GeneratePopulation(publicoption.PhiCorrelated, 80, 5)
	sat := pop.TotalUnconstrainedPerCapita()
	mono := publicoption.NewMonopoly(nil)
	eq := mono.Outcome(publicoption.Strategy{Kappa: 1, C: 0.2}, 0.3*sat, pop)
	if eq.Psi() <= 0 {
		t.Fatal("expected positive monopoly revenue")
	}
	w := publicoption.WelfareOf(eq.Premium, 0.2)
	if w.ISP <= 0 || w.Consumer+w.ISP+w.CPs <= 0 {
		t.Fatalf("welfare decomposition broken: %+v", w)
	}
}

func TestFacadeDuopolyWithPublicOption(t *testing.T) {
	pop := publicoption.GeneratePopulation(publicoption.PhiCorrelated, 80, 6)
	sat := pop.TotalUnconstrainedPerCapita()
	out := publicoption.DuopolyWithPublicOption(
		publicoption.Strategy{Kappa: 1, C: 0.3}, 0.5, 0.4*sat, pop)
	if len(out.Shares) != 2 || math.Abs(out.Shares[0]+out.Shares[1]-1) > 1e-9 {
		t.Fatalf("shares = %v", out.Shares)
	}
	if out.Phi <= 0 {
		t.Fatal("market surplus must be positive")
	}
	if out.ISPs[1].Name != "public-option" || out.Eqs[1] == nil {
		t.Fatalf("second ISP %q should be the public option with an equilibrium", out.ISPs[1].Name)
	}
}

func TestFacadeTCP(t *testing.T) {
	flows := []publicoption.TCPFlow{
		{Name: "a", RTT: 0.05},
		{Name: "b", RTT: 0.05},
	}
	res, err := publicoption.SimulateTCP(publicoption.TCPConfig{Capacity: 10}, flows)
	if err != nil {
		t.Fatal(err)
	}
	ref := publicoption.TCPMaxMinReference(10, []float64{0, 0})
	for i := range flows {
		if math.Abs(res.Flows[i].Rate-ref[i]) > 0.2*ref[i] {
			t.Errorf("flow %d rate %v vs reference %v", i, res.Flows[i].Rate, ref[i])
		}
	}
}

func TestFacadeFigureBuiltins(t *testing.T) {
	grids := make(map[string]bool)
	for _, name := range publicoption.GridScenarioNames() {
		grids[name] = true
	}
	for _, name := range []string{"fig4", "fig5-c05", "fig7", "fig8-c05", "fig9", "fig10-c05", "fig11", "fig12-c05"} {
		if !grids[name] {
			t.Errorf("figure built-in %s is not a grid scenario", name)
		}
	}
	s, ok := publicoption.ScenarioByName("archetypes-capacity")
	if !ok {
		t.Fatal("archetypes-capacity missing")
	}
	tables, err := s.Run(publicoption.ScenarioRunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	chart := publicoption.RenderChart(tables[0], 60, 12)
	if !strings.Contains(chart, "phi") {
		t.Error("chart missing legend")
	}
	text := publicoption.RenderText(tables[0], 10)
	if !strings.Contains(text, "nu") {
		t.Error("text missing header")
	}
}

func TestFacadePublicOptionStrategyNeutral(t *testing.T) {
	if !publicoption.PublicOptionStrategy.Neutral() {
		t.Fatal("the Public Option strategy must be neutral")
	}
	if publicoption.PublicOptionStrategy.Kappa != 0 || publicoption.PublicOptionStrategy.C != 0 {
		t.Fatal("Definition 5: s_PO = (0, 0)")
	}
}
