package scenario

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"

	"github.com/netecon-sim/publicoption/internal/alloc"
	"github.com/netecon-sim/publicoption/internal/core"
	"github.com/netecon-sim/publicoption/internal/econ"
	"github.com/netecon-sim/publicoption/internal/numeric"
)

// smallEnsemble is a quick random population spec shared by runner tests.
func smallEnsemble(n int) PopulationSpec {
	return PopulationSpec{Kind: "ensemble", N: n, Seed: 11}
}

// A neutral monopoly scenario must reproduce the plain rate-equilibrium
// surplus: the scenario engine adds orchestration, not physics.
func TestNeutralMonopolyMatchesDirectSolve(t *testing.T) {
	s := &Scenario{
		Name: "neutral-check", Title: "check",
		Population: smallEnsemble(60),
		Providers:  []ProviderSpec{{Name: "isp", Gamma: 1}},
		Sweep: SweepSpec{
			Axis: AxisNu, Lo: 0.2, Hi: 0.8, Points: 4, OfSaturation: true,
			Metrics: []string{MetricPhi, MetricUtilization},
		},
	}
	tables, err := s.Run(RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pop, err := s.Population.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	phi := tables[0].Series[0]
	if phi.Len() != 4 {
		t.Fatalf("want 4 points, got %d", phi.Len())
	}
	for i := range phi.X {
		want := econ.PhiAt(alloc.MaxMin{}, phi.X[i], pop)
		if math.Abs(phi.Y[i]-want) > 1e-6*math.Max(want, 1) {
			t.Errorf("Φ(ν=%g) = %g, direct solve gives %g", phi.X[i], phi.Y[i], want)
		}
	}
	// Φ must be non-decreasing in ν (Theorem 2).
	for i := 1; i < phi.Len(); i++ {
		if phi.Y[i] < phi.Y[i-1]-1e-9 {
			t.Errorf("Φ decreased along ν: %v", phi.Y)
		}
	}
}

// The batched large-N path must agree with materializing the same batched
// ensemble and solving it directly — batching is a memory layout, not a
// model change.
func TestBatchedMatchesUnbatched(t *testing.T) {
	s := &Scenario{
		Name: "batched-check", Title: "check",
		Population: PopulationSpec{Kind: "ensemble", N: 240, Seed: 5, Batch: 70},
		Providers: []ProviderSpec{
			{Name: "big", Gamma: 0.6},
			{Name: "small", Gamma: 0.4},
		},
		Sweep: SweepSpec{
			Axis: AxisNu, Lo: 0.15, Hi: 1.1, Points: 5, OfSaturation: true,
			Metrics: []string{MetricPhi, MetricShare, MetricUtilization},
		},
	}
	tables, err := s.Run(RunOptions{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	pop, err := s.Population.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if len(pop) != 240 {
		t.Fatalf("materialized batched population has %d CPs, want 240", len(pop))
	}
	phi := tables[0].Series[0]
	for i := range phi.X {
		want := econ.PhiAt(alloc.MaxMin{}, phi.X[i], pop)
		if math.Abs(phi.Y[i]-want) > 1e-6*math.Max(want, 1) {
			t.Errorf("batched Φ(ν=%g) = %g, unbatched solve gives %g", phi.X[i], phi.Y[i], want)
		}
	}
	// Lemma 4: neutral homogeneous providers hold their capacity shares.
	shares := tables[1]
	if len(shares.Series) != 2 {
		t.Fatalf("want 2 share series, got %d", len(shares.Series))
	}
	for k, gamma := range []float64{0.6, 0.4} {
		for _, y := range shares.Series[k].Y {
			if math.Abs(y-gamma) > 1e-12 {
				t.Errorf("share of provider %d = %g, want γ=%g", k, y, gamma)
			}
		}
	}
}

// A monopoly price sweep: revenue is zero at c=0, surplus falls as the
// price rises, and every metric table has the declared shape.
func TestMonopolyPriceSweep(t *testing.T) {
	s := &Scenario{
		Name: "mono-check", Title: "check",
		Population: smallEnsemble(60),
		Providers:  []ProviderSpec{{Name: "mono", Gamma: 1, Kappa: 1}},
		Sweep: SweepSpec{
			Axis: AxisPrice, Values: []float64{0, 0.3, 0.9}, Nu: 0.4, OfSaturation: true,
			Metrics: []string{MetricPhi, MetricPsi, MetricShare},
		},
	}
	tables, err := s.Run(RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 3 {
		t.Fatalf("want 3 tables, got %d", len(tables))
	}
	phi, psi, share := tables[0].Series[0], tables[1].Series[0], tables[2].Series[0]
	if psi.Y[0] != 0 {
		t.Errorf("Ψ at c=0 is %g, want 0", psi.Y[0])
	}
	if !(phi.Y[0] >= phi.Y[2]) {
		t.Errorf("Φ should not rise with price: %v", phi.Y)
	}
	for _, m := range share.Y {
		if m != 1 {
			t.Errorf("monopoly share %g, want 1", m)
		}
	}
	for _, series := range []struct {
		name string
		ys   []float64
	}{{"phi", phi.Y}, {"psi", psi.Y}} {
		for _, y := range series.ys {
			if math.IsNaN(y) || math.IsInf(y, 0) || y < 0 {
				t.Errorf("%s contains invalid value %g", series.name, y)
			}
		}
	}
}

// Duopoly with a Public Option: overpricing must bleed incumbent share.
func TestPublicOptionDuopolySweep(t *testing.T) {
	s := &Scenario{
		Name: "po-check", Title: "check",
		Population: smallEnsemble(60),
		Providers: []ProviderSpec{
			{Name: "incumbent", Gamma: 0.5, Kappa: 1},
			{Name: "po", Gamma: 0.5, PublicOption: true},
		},
		Sweep: SweepSpec{
			Axis: AxisPrice, Values: []float64{0.05, 2.5}, Nu: 0.4, OfSaturation: true,
			Metrics: []string{MetricShare, MetricPhi},
		},
	}
	tables, err := s.Run(RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	inc := tables[0].Series[0]
	po := tables[0].Series[1]
	for i := range inc.X {
		if math.Abs(inc.Y[i]+po.Y[i]-1) > 1e-6 {
			t.Errorf("shares at c=%g sum to %g", inc.X[i], inc.Y[i]+po.Y[i])
		}
	}
	if !(inc.Y[1] < inc.Y[0]) {
		t.Errorf("incumbent share should fall when overpricing: %v", inc.Y)
	}
}

// The subsidy axis: σ=0 must coincide with the baseline duopoly solution.
func TestSubsidySweepBaseline(t *testing.T) {
	pop := smallEnsemble(50)
	base := &Scenario{
		Name: "sub-base", Title: "check",
		Population: pop,
		Providers: []ProviderSpec{
			{Name: "incumbent", Gamma: 0.5, Kappa: 1, C: 0.4},
			{Name: "po", Gamma: 0.5, PublicOption: true},
		},
		Sweep: SweepSpec{
			Axis: AxisPrice, Values: []float64{0.4}, Nu: 0.4, OfSaturation: true,
			Metrics: []string{MetricShare},
		},
	}
	sub := &Scenario{
		Name: "sub-check", Title: "check",
		Population: pop,
		Providers: []ProviderSpec{
			{Name: "incumbent", Gamma: 0.5, Kappa: 1, C: 0.4},
			{Name: "po", Gamma: 0.5, PublicOption: true},
		},
		Sweep: SweepSpec{
			Axis: AxisSigma, Values: []float64{0, 1}, Nu: 0.4, OfSaturation: true,
			Metrics: []string{MetricShare},
		},
	}
	baseT, err := base.Run(RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	subT, err := sub.Run(RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m0 := baseT[0].Series[0].Y[0]
	mSub := subT[0].Series[0].Y[0]
	if math.Abs(m0-mSub) > 1e-4 {
		t.Errorf("σ=0 share %g differs from baseline duopoly share %g", mSub, m0)
	}
	// Full rebating should not lose the incumbent share.
	if subT[0].Series[0].Y[1] < mSub-1e-6 {
		t.Errorf("rebating reduced incumbent share: σ=0 → %g, σ=1 → %g", mSub, subT[0].Series[0].Y[1])
	}
}

// A regime-comparison scenario must agree with core.CompareRegimes run at
// the same configuration: the scenario engine decomposes the comparison
// into independent per-regime curves but may not change the answers.
func TestRegimesMatchCompareRegimes(t *testing.T) {
	spec := smallEnsemble(40)
	s := &Scenario{
		Name: "regimes-check", Title: "check",
		Population: spec,
		Regulation: &RegulationSpec{GridN: 8},
		Sweep: SweepSpec{
			Axis: AxisNu, Values: []float64{0.4}, OfSaturation: true,
			Metrics: []string{MetricPhi, MetricPsi},
		},
	}
	tables, err := s.Run(RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	phiT := tables[0]
	if len(phiT.Series) != 5 {
		t.Fatalf("want 5 regime series, got %d", len(phiT.Series))
	}
	pop, err := spec.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	nu := 0.4 * pop.TotalUnconstrainedPerCapita()
	want := core.CompareRegimes(nil, nu, pop, core.RegimeConfig{
		GridN: 8,
		POGrid: &core.StrategyGrid{
			Kappas: []float64{0, 0.5, 1},
			Cs:     numeric.Linspace(0, 1, 11),
		},
	})
	byName := map[string]float64{}
	for _, series := range phiT.Series {
		byName[series.Name] = series.Y[0]
	}
	for _, oc := range want {
		got, ok := byName[oc.Regime.String()]
		if !ok {
			t.Fatalf("scenario output missing regime %s", oc.Regime)
		}
		if math.Abs(got-oc.Phi) > 1e-4*math.Max(oc.Phi, 1) {
			t.Errorf("%s: scenario Φ=%g, CompareRegimes Φ=%g", oc.Regime, got, oc.Phi)
		}
	}
}

// CSV output of scenario tables must carry the standard sweep schema.
func TestScenarioCSVSchema(t *testing.T) {
	s := valid()
	tables, err := s.Run(RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tables[0].WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	header := strings.SplitN(buf.String(), "\n", 2)[0]
	if header != "series,nu,phi" {
		t.Errorf("CSV header %q, want series,nu,phi", header)
	}
}

// TestOligopolySymmetricSharesEqualGamma runs the Lemma 4 built-in: four
// ISPs with one strategy hold exactly their capacity shares at every ν,
// as printed (10 significant digits, the CSV's precision).
func TestOligopolySymmetricSharesEqualGamma(t *testing.T) {
	s, _ := Get("oligopoly-symmetric")
	tables, err := s.Run(RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	shares := tables[1]
	if len(shares.Series) != len(s.Providers) {
		t.Fatalf("want %d share series, got %d", len(s.Providers), len(shares.Series))
	}
	for k, p := range s.Providers {
		series := shares.Series[k]
		if series.Name != p.Name || len(series.Y) != s.Sweep.Points {
			t.Fatalf("share series %d is %q with %d points, want %q with %d", k, series.Name, len(series.Y), p.Name, s.Sweep.Points)
		}
		want := strconv.FormatFloat(p.Gamma, 'g', 10, 64)
		for i, y := range series.Y {
			if got := strconv.FormatFloat(y, 'g', 10, 64); got != want {
				t.Errorf("%s share at ν=%g is %s, want γ=%s (Lemma 4)", p.Name, series.X[i], got, want)
			}
		}
	}
}
