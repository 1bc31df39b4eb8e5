package scenario

import (
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"github.com/netecon-sim/publicoption/internal/core"
	"github.com/netecon-sim/publicoption/internal/numeric"
)

// Every built-in must survive marshal → unmarshal → deep-equal: scenarios
// are data, and the registry is the reference corpus for the JSON schema.
func TestBuiltinsRoundTrip(t *testing.T) {
	for _, s := range All() {
		js, err := s.JSON()
		if err != nil {
			t.Fatalf("%s: marshal: %v", s.Name, err)
		}
		back, err := Load(strings.NewReader(string(js)))
		if err != nil {
			t.Fatalf("%s: reload: %v", s.Name, err)
		}
		if !reflect.DeepEqual(s, back) {
			t.Errorf("%s: round-trip changed the scenario:\n%s", s.Name, js)
		}
	}
}

func TestRegistry(t *testing.T) {
	names := Names()
	if len(names) < 10 {
		t.Fatalf("registry has %d scenarios, want >= 10: %v", len(names), names)
	}
	for i := 1; i < len(names); i++ {
		if names[i] <= names[i-1] {
			t.Errorf("names not sorted: %q before %q", names[i-1], names[i])
		}
	}
	s, ok := Get("oligopoly-large-n")
	if !ok {
		t.Fatal("missing built-in oligopoly-large-n")
	}
	if s.Population.N != 100000 || s.Population.Batch <= 0 {
		t.Errorf("oligopoly-large-n should be a batched 1e5-CP ensemble, got n=%d batch=%d",
			s.Population.N, s.Population.Batch)
	}
	// Get returns copies: mutating one must not leak into the registry.
	s.Title = "mutated"
	s2, _ := Get("oligopoly-large-n")
	if s2.Title == "mutated" {
		t.Error("Get leaked a mutable reference to the registry")
	}
	if _, ok := Get("no-such-scenario"); ok {
		t.Error("Get returned a scenario for an unknown name")
	}
}

// valid returns a minimal well-formed scenario mutated per test case.
func valid() *Scenario {
	return &Scenario{
		Name:  "t",
		Title: "t",
		Population: PopulationSpec{Kind: "explicit", CPs: []CPSpec{
			{Name: "a", Alpha: 0.5, ThetaHat: 1, V: 0.5, Phi: 0.5,
				Demand: DemandSpec{Family: "exponential", Beta: 2}},
		}},
		Providers: []ProviderSpec{{Name: "isp", Gamma: 1}},
		Sweep:     SweepSpec{Axis: AxisNu, Values: []float64{0.1, 0.3}},
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Scenario)
		want   string // substring of the expected error
	}{
		{"zero capacity on nu axis", func(s *Scenario) {
			s.Sweep.Values = []float64{0, 0.3}
		}, "non-positive"},
		{"zero fixed capacity on price axis", func(s *Scenario) {
			s.Sweep = SweepSpec{Axis: AxisPrice, Lo: 0, Hi: 1, Points: 3}
		}, "positive fixed capacity"},
		{"unknown demand family", func(s *Scenario) {
			s.Population.CPs[0].Demand = DemandSpec{Family: "hyperbolic"}
		}, "unknown demand family"},
		{"exponential without beta", func(s *Scenario) {
			s.Population.CPs[0].Demand = DemandSpec{Family: "exponential"}
		}, "beta"},
		{"empty CP population", func(s *Scenario) {
			s.Population.CPs = nil
		}, "no CPs"},
		{"unknown population kind", func(s *Scenario) {
			s.Population = PopulationSpec{Kind: "census"}
		}, "unknown population kind"},
		{"missing population kind", func(s *Scenario) {
			s.Population = PopulationSpec{}
		}, "population kind missing"},
		{"unknown phi setting", func(s *Scenario) {
			s.Population.Phi = "lognormal"
		}, "phi setting"},
		{"capacity shares not summing to 1", func(s *Scenario) {
			s.Providers = []ProviderSpec{{Name: "a", Gamma: 0.5}, {Name: "b", Gamma: 0.6}}
		}, "sum to"},
		{"alpha out of range", func(s *Scenario) {
			s.Population.CPs[0].Alpha = 1.5
		}, "popularity"},
		{"duplicate provider names", func(s *Scenario) {
			s.Providers = []ProviderSpec{{Name: "a", Gamma: 0.5}, {Name: "a", Gamma: 0.5}}
		}, "duplicate provider"},
		{"no providers and no regulation", func(s *Scenario) {
			s.Providers = nil
		}, "at least one provider"},
		{"unknown axis", func(s *Scenario) {
			s.Sweep.Axis = "temperature"
		}, "unknown sweep axis"},
		{"unknown metric", func(s *Scenario) {
			s.Sweep.Metrics = []string{"entropy"}
		}, "unknown metric"},
		{"duplicate metric", func(s *Scenario) {
			s.Sweep.Metrics = []string{"phi", "phi"}
		}, "duplicate metric"},
		{"empty grid", func(s *Scenario) {
			s.Sweep.Values = nil
		}, "empty sweep grid"},
		{"batched non-neutral provider", func(s *Scenario) {
			s.Population = PopulationSpec{Kind: "ensemble", N: 100, Batch: 50}
			s.Providers = []ProviderSpec{{Name: "isp", Gamma: 1, Kappa: 0.5, C: 0.3}}
		}, "only neutral"},
		{"batched strategy axis", func(s *Scenario) {
			s.Population = PopulationSpec{Kind: "ensemble", N: 100, Batch: 50}
			s.Sweep = SweepSpec{Axis: AxisPrice, Lo: 0, Hi: 1, Points: 3, Nu: 10}
		}, "sweep capacity only"},
		{"batch larger than ensemble", func(s *Scenario) {
			s.Population = PopulationSpec{Kind: "ensemble", N: 100, Batch: 500}
		}, "exceeds ensemble size"},
		{"sigma axis with one provider", func(s *Scenario) {
			s.Sweep = SweepSpec{Axis: AxisSigma, Lo: 0, Hi: 1, Points: 3, Nu: 1}
		}, "exactly two"},
		{"poshare axis without public option", func(s *Scenario) {
			s.Providers = []ProviderSpec{{Name: "a", Gamma: 0.5}, {Name: "b", Gamma: 0.5}}
			s.Sweep = SweepSpec{Axis: AxisPOShare, Lo: 0.1, Hi: 0.5, Points: 3, Nu: 1}
		}, "Public Option"},
		{"two best responders", func(s *Scenario) {
			s.Providers = []ProviderSpec{
				{Name: "a", Gamma: 0.5, BestResponse: true},
				{Name: "b", Gamma: 0.5, BestResponse: true},
			}
		}, "at most one"},
		{"regulation with providers", func(s *Scenario) {
			s.Regulation = &RegulationSpec{}
		}, "drop the providers"},
		{"regulation with unknown regime", func(s *Scenario) {
			s.Providers = nil
			s.Regulation = &RegulationSpec{Regimes: []string{"laissez-faire"}}
		}, "unknown regime"},
		{"regulation on a strategy axis", func(s *Scenario) {
			s.Providers = nil
			s.Regulation = &RegulationSpec{}
			s.Sweep = SweepSpec{Axis: AxisPrice, Lo: 0, Hi: 1, Points: 3, Nu: 1}
		}, "axis must be"},
		{"missing name", func(s *Scenario) {
			s.Name = ""
		}, "missing name"},
		{"path-hostile name", func(s *Scenario) {
			s.Name = "../evil"
		}, "lower-kebab-case"},
		{"best responder on a strategy axis", func(s *Scenario) {
			s.Providers[0].BestResponse = true
			s.Sweep = SweepSpec{Axis: AxisPrice, Lo: 0, Hi: 1, Points: 3, Nu: 1}
		}, "best-responds"},
		{"batched non-ensemble population", func(s *Scenario) {
			s.Population = PopulationSpec{Kind: "paper", Batch: 100}
		}, "cannot be batched"},
		{"providers over the migration search's cap", func(s *Scenario) {
			s.Providers = nil
			for i := range core.MaxISPs + 1 {
				s.Providers = append(s.Providers, ProviderSpec{Name: string(rune('a' + i)), Gamma: 0.2})
			}
		}, "cap of 4 (core.MaxISPs)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := valid()
			tc.mutate(s)
			err := s.Validate()
			if err == nil {
				t.Fatalf("Validate accepted an invalid scenario")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
			if _, err := s.Run(RunOptions{}); err == nil {
				t.Error("Run accepted what Validate rejected")
			}
		})
	}
}

// TestShapeCaps: an axis of MaxAxisPoints values is accepted and one more
// is rejected, whether it is declared by points or by explicit values, on
// either axis; a grid of two legal axes is rejected once its cell count
// passes MaxGridCells.
func TestShapeCaps(t *testing.T) {
	values := func(n int) []float64 { return numeric.Linspace(0.1, 1, n) }
	grid := func(cols, rows int) SweepSpec {
		return SweepSpec{Axis: AxisNu, Lo: 0.1, Hi: 1, Points: cols,
			Grid: &GridSpec{Axis: AxisPrice, Lo: 0, Hi: 1, Points: rows}}
	}
	axisCap := fmt.Sprintf("cap of %d per axis (scenario.MaxAxisPoints)", MaxAxisPoints)
	cellCap := fmt.Sprintf("cap of %d per grid (scenario.MaxGridCells)", MaxGridCells)
	cases := []struct {
		name  string
		sweep SweepSpec
		want  string // "" when accepted, else a substring of the error
	}{
		{"points at the cap", SweepSpec{Axis: AxisNu, Lo: 0.1, Hi: 1, Points: MaxAxisPoints}, ""},
		{"points over the cap", SweepSpec{Axis: AxisNu, Lo: 0.1, Hi: 1, Points: MaxAxisPoints + 1}, axisCap},
		{"values at the cap", SweepSpec{Axis: AxisNu, Values: values(MaxAxisPoints)}, ""},
		{"values over the cap", SweepSpec{Axis: AxisNu, Values: values(MaxAxisPoints + 1)}, axisCap},
		{"row points over the cap", grid(2, MaxAxisPoints+1), axisCap},
		{"grid at the cell cap", grid(MaxGridCells/256, 256), ""},
		{"grid over the cell cap", grid(MaxGridCells/256+1, 256), cellCap},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := valid()
			s.Sweep = tc.sweep
			err := s.Validate()
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("rejected: %v", err)
			case tc.want != "" && err == nil:
				t.Fatal("accepted an over-cap scenario")
			case tc.want != "" && !strings.Contains(err.Error(), tc.want):
				t.Fatalf("error %q does not name the cap %q", err, tc.want)
			}
		})
	}
}

// TestOverCapRejectionAllocatesLittle: the caps are checked from the
// declared lengths, so rejecting a body that declares ten million points
// costs about what parsing it does, not the 76 MB grid it asks for.
func TestOverCapRejectionAllocatesLittle(t *testing.T) {
	s := valid()
	s.Sweep = SweepSpec{Axis: AxisNu, Lo: 0.1, Hi: 1, Points: 10_000_000}
	js, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	body := string(js)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = LoadString(body)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "MaxAxisPoints") {
		t.Fatalf("LoadString error %v, want the axis cap", err)
	}
	if b := after.TotalAlloc - before.TotalAlloc; b >= 1<<20 {
		t.Fatalf("rejecting a %d-point axis allocated %d bytes, want < 1 MiB", s.Sweep.Points, b)
	}
}

func TestValidAccepts(t *testing.T) {
	if err := valid().Validate(); err != nil {
		t.Fatalf("minimal scenario rejected: %v", err)
	}
	// Batched neutral markets never reach the migration search, so the
	// provider cap does not bind them.
	s, _ := Get("oligopoly-large-n")
	if len(s.Providers) <= core.MaxISPs {
		t.Fatalf("oligopoly-large-n has %d providers; it should exceed the cap of %d", len(s.Providers), core.MaxISPs)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("oligopoly-large-n rejected: %v", err)
	}
}

// Hand-written JSON must reject unknown fields — silent typos in scenario
// files would otherwise run the wrong experiment.
func TestLoadRejectsUnknownFields(t *testing.T) {
	_, err := LoadString(`{"name":"x","title":"x","popluation":{"kind":"paper"}}`)
	if err == nil {
		t.Fatal("Load accepted a misspelled field")
	}
}

func TestLoadValidates(t *testing.T) {
	_, err := LoadString(`{"name":"x","title":"x",
		"population":{"kind":"paper"},
		"providers":[{"name":"isp","gamma":1}],
		"sweep":{"axis":"nu","values":[0]}}`)
	if err == nil || !strings.Contains(err.Error(), "non-positive") {
		t.Fatalf("Load skipped validation: %v", err)
	}
}

// The JSON wire names are the schema documented in docs/SCENARIOS.md;
// renaming a field is a breaking change that must be deliberate.
func TestWireFormat(t *testing.T) {
	s := valid()
	s.Sweep.OfSaturation = true
	s.Sweep.Nu = 2
	js, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		`"name"`, `"title"`, `"population"`, `"kind"`, `"cps"`, `"alpha"`,
		`"theta_hat"`, `"demand"`, `"family"`, `"beta"`, `"providers"`,
		`"gamma"`, `"sweep"`, `"axis"`, `"values"`, `"of_saturation"`, `"nu"`,
	} {
		if !strings.Contains(string(js), key) {
			t.Errorf("wire format missing %s:\n%s", key, js)
		}
	}
}
