package scenario

import (
	"bytes"
	"encoding/json"
	"testing"

	"github.com/netecon-sim/publicoption/internal/demand"
	"github.com/netecon-sim/publicoption/internal/traffic"
)

func TestCanonicalJSONDeterministicAndCompact(t *testing.T) {
	s1, ok := Get("neutral-baseline")
	if !ok {
		t.Fatal("missing built-in neutral-baseline")
	}
	s2, _ := Get("neutral-baseline")
	c1, err := s1.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	c2, err := s2.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(c1, c2) {
		t.Fatal("two copies of the same scenario serialize differently")
	}
	var compacted bytes.Buffer
	if err := json.Compact(&compacted, c1); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(c1, compacted.Bytes()) {
		t.Fatal("canonical form is not compact")
	}

	// Round-trip through the pretty form and back: same canonical bytes.
	pretty, err := s1.JSON()
	if err != nil {
		t.Fatal(err)
	}
	reloaded, err := Load(bytes.NewReader(pretty))
	if err != nil {
		t.Fatal(err)
	}
	c3, err := reloaded.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(c1, c3) {
		t.Fatalf("canonical bytes changed across a JSON round-trip:\n%s\nvs\n%s", c1, c3)
	}

	// Canonical bytes are themselves a loadable scenario.
	if _, err := Load(bytes.NewReader(c1)); err != nil {
		t.Fatalf("canonical form does not load: %v", err)
	}
}

func TestCanonicalJSONDistinguishesScenarios(t *testing.T) {
	a, _ := Get("neutral-baseline")
	b, _ := Get("neutral-baseline")
	b.Sweep.Points++
	ca, _ := a.CanonicalJSON()
	cb, _ := b.CanonicalJSON()
	if bytes.Equal(ca, cb) {
		t.Fatal("scenarios with different sweeps share canonical bytes")
	}
}

func TestApplyEnsembleOverrides(t *testing.T) {
	t.Run("noop when both zero", func(t *testing.T) {
		s, _ := Get("archetypes-capacity")
		before, _ := s.CanonicalJSON()
		if err := s.ApplyEnsembleOverrides(0, 0); err != nil {
			t.Fatal(err)
		}
		after, _ := s.CanonicalJSON()
		if !bytes.Equal(before, after) {
			t.Fatal("zero overrides mutated the scenario")
		}
	})
	t.Run("paper becomes seeded ensemble", func(t *testing.T) {
		s, _ := Get("neutral-baseline")
		if s.Population.Kind != "paper" {
			t.Fatalf("precondition: neutral-baseline population is %q", s.Population.Kind)
		}
		if err := s.ApplyEnsembleOverrides(42, 77); err != nil {
			t.Fatal(err)
		}
		if s.Population.Kind != "ensemble" || s.Population.Seed != 42 || s.Population.N != 77 {
			t.Fatalf("override result: %+v", s.Population)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("overridden scenario invalid: %v", err)
		}
	})
	t.Run("ensemble keeps kind", func(t *testing.T) {
		s := &Scenario{
			Name: "t", Title: "t",
			Population: PopulationSpec{Kind: "ensemble", N: 100, Seed: 1},
			Providers:  []ProviderSpec{{Name: "p", Gamma: 1}},
			Sweep:      SweepSpec{Axis: AxisNu, Values: []float64{1}},
		}
		if err := s.ApplyEnsembleOverrides(9, 0); err != nil {
			t.Fatal(err)
		}
		if s.Population.Kind != "ensemble" || s.Population.Seed != 9 || s.Population.N != 100 {
			t.Fatalf("override result: %+v", s.Population)
		}
	})
	t.Run("non-random populations reject overrides", func(t *testing.T) {
		for _, name := range []string{"archetypes-capacity"} {
			s, _ := Get(name)
			if err := s.ApplyEnsembleOverrides(7, 0); err == nil {
				t.Fatalf("%s accepted a seed override without a random population", name)
			}
		}
	})
	t.Run("negative size rejected", func(t *testing.T) {
		s, _ := Get("neutral-baseline")
		if err := s.ApplyEnsembleOverrides(0, -5); err == nil {
			t.Fatal("negative ensemble size accepted")
		}
	})
	t.Run("batched size floor enforced via Validate", func(t *testing.T) {
		s, _ := Get("oligopoly-large-n")
		if s.Population.Batch == 0 {
			t.Skip("oligopoly-large-n no longer batched")
		}
		if err := s.ApplyEnsembleOverrides(0, s.Population.Batch-1); err == nil {
			t.Fatal("shrinking a batched ensemble below its batch size passed validation")
		}
	})
}

func TestApplyEnsembleOverridesChangesDraw(t *testing.T) {
	run := func(seed uint64) []float64 {
		s, _ := Get("neutral-baseline")
		if err := s.ApplyEnsembleOverrides(seed, 30); err != nil {
			t.Fatal(err)
		}
		tables, err := s.Run(RunOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		return tables[0].Series[0].Y
	}
	a, b, c := run(1), run(1), run(2)
	if !equalFloats(a, b) {
		t.Fatal("same seed, different results")
	}
	if equalFloats(a, c) {
		t.Fatal("different seeds produced identical results")
	}
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestDefaultEnsembleEqualsPaperPopulation pins the premise behind
// ApplyEnsembleOverrides' paper->ensemble switch: a default-parameter
// ensemble must reproduce the "paper" population exactly, under BOTH φ
// settings. The independent setting is the regression case — its φ redraw
// must come from a separate stream (PaperPopulation's convention), not
// shift the characteristic draws. The same holds off the default: a
// re-seeded, re-sized ensemble keeps α, θ̂, v and β across φ settings, so
// the appendix figures keep Ψ (TestAppendixFiguresKeepPsi).
func TestDefaultEnsembleEqualsPaperPopulation(t *testing.T) {
	corr, err := (&PopulationSpec{Kind: "ensemble", Seed: 7, N: 120}).Materialize()
	if err != nil {
		t.Fatal(err)
	}
	indep, err := (&PopulationSpec{Kind: "ensemble", Phi: "independent", Seed: 7, N: 120}).Materialize()
	if err != nil {
		t.Fatal(err)
	}
	phiMoved := false
	for i := range corr {
		a, b := corr[i], indep[i]
		if a.Alpha != b.Alpha || a.ThetaHat != b.ThetaHat || a.V != b.V ||
			a.Curve.(demand.Exponential).Beta != b.Curve.(demand.Exponential).Beta {
			t.Fatalf("seed 7, n 120: CP %d characteristics differ across φ settings: %+v vs %+v", i, a, b)
		}
		phiMoved = phiMoved || a.Phi != b.Phi
	}
	if !phiMoved {
		t.Fatal("seed 7, n 120: the independent setting did not redraw φ")
	}

	for _, phi := range []string{"", "independent"} {
		paper := PopulationSpec{Kind: "paper", Phi: phi}
		ens := PopulationSpec{Kind: "ensemble", Phi: phi}
		a, err := paper.Materialize()
		if err != nil {
			t.Fatal(err)
		}
		b, err := ens.Materialize()
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("phi=%q: sizes %d vs %d", phi, len(a), len(b))
		}
		for i := range a {
			if a[i].Alpha != b[i].Alpha || a[i].ThetaHat != b[i].ThetaHat ||
				a[i].V != b[i].V || a[i].Phi != b[i].Phi {
				t.Fatalf("phi=%q: CP %d differs: paper %+v vs ensemble %+v", phi, i, a[i], b[i])
			}
		}
	}
}

func TestOverrideWithDefaultsPreservesPhiIndependentOutput(t *testing.T) {
	// Re-specifying the effective defaults must not change the result, even
	// for the φ-independent appendix scenario.
	baseline, _ := Get("monopoly-phi-independent")
	overridden, _ := Get("monopoly-phi-independent")
	if err := overridden.ApplyEnsembleOverrides(traffic.DefaultSeed, 1000); err != nil {
		t.Fatal(err)
	}
	a, err := baseline.Population.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	b, err := overridden.Population.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].Alpha != b[i].Alpha || a[i].ThetaHat != b[i].ThetaHat ||
			a[i].V != b[i].V || a[i].Phi != b[i].Phi {
			t.Fatalf("CP %d differs after a defaults-only override", i)
		}
	}
}

func TestCanonicalJSONMatchesWireLoad(t *testing.T) {
	// A scenario arriving over the wire as raw JSON and the same scenario
	// from the registry must content-address identically — the property the
	// service's cache relies on.
	s, _ := Get("monopoly-price-sweep")
	canon, err := s.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var raw json.RawMessage = canon
	loaded, err := Load(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	c2, err := loaded.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(canon, c2) {
		t.Fatal("wire round-trip changed the canonical form")
	}
}
