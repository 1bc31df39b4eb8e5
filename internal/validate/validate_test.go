package validate

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"github.com/netecon-sim/publicoption/internal/alloc"
	"github.com/netecon-sim/publicoption/internal/scenario"
)

// testOptions keeps the simulation windows short; the warm-started windows
// settle well within a few seconds of simulated time.
func testOptions() Options {
	return Options{Samples: 2, Warmup: 3, Measure: 10, Flows: 160}
}

// mustScenario fetches a built-in scenario or fails the test.
func mustScenario(t *testing.T, name string) *scenario.Scenario {
	t.Helper()
	s, ok := scenario.Get(name)
	if !ok {
		t.Fatalf("built-in scenario %q missing", name)
	}
	return s
}

// TestScenarioAgreement drives the harness over built-in scenarios of
// different shapes — a neutral absolute-unit monopoly, a premium-class
// duopoly with a Public Option, and a 2-D sizing grid — asserting the
// fluid and packet substrates agree within the default tolerances.
func TestScenarioAgreement(t *testing.T) {
	for _, tc := range []struct {
		name string
		cps  int // ensemble size override (0 = none)
	}{
		{name: "archetypes-capacity"},
		{name: "public-option-duopoly", cps: 24},
		{name: "po-sizing-gamma-nu", cps: 24},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := mustScenario(t, tc.name)
			if tc.cps > 0 {
				if err := s.ApplyEnsembleOverrides(0, tc.cps); err != nil {
					t.Fatal(err)
				}
			}
			rep, err := Scenario(s, testOptions())
			if err != nil {
				t.Fatal(err)
			}
			verdicts, failed := rep.Counts()
			if verdicts == 0 {
				t.Fatal("no verdicts produced")
			}
			for _, v := range rep.Failures() {
				t.Errorf("%s %s %s %s: fluid=%.6g packet=%.6g err=%.3g tol=%.3g",
					v.Cell, v.Link, v.CP, v.Metric, v.Fluid, v.Packet, v.Err, v.Tol)
			}
			if failed == 0 {
				var worst float64
				for i := range rep.Samples {
					for _, v := range rep.Samples[i].Verdicts {
						if v.Tol > 0 && v.Err/v.Tol > worst {
							worst = v.Err / v.Tol
						}
					}
				}
				t.Logf("%d verdicts, worst error at %.0f%% of tolerance", verdicts, 100*worst)
			}
		})
	}
}

// TestRegulationScenarioAgreement exercises the regime-comparison path on a
// trimmed regime list (the full five-regime battery is CLI territory).
func TestRegulationScenarioAgreement(t *testing.T) {
	s := mustScenario(t, "regimes-comparison")
	if err := s.ApplyEnsembleOverrides(0, 24); err != nil {
		t.Fatal(err)
	}
	s.Regulation.Regimes = []string{"neutral", "unregulated"}
	opt := testOptions()
	opt.Samples = 1
	rep, err := Scenario(s, opt)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := rep.Counts(); v == 0 {
		t.Fatal("no verdicts produced")
	}
	for _, v := range rep.Failures() {
		t.Errorf("%s %s %s %s: fluid=%.6g packet=%.6g err=%.3g tol=%.3g",
			v.Cell, v.Link, v.CP, v.Metric, v.Fluid, v.Packet, v.Err, v.Tol)
	}
}

// TestHarnessDetectsDivergence is the falsifiability check: replaying a
// deliberately wrong equilibrium — θ shares far from what max-min dynamics
// produce — must fail verdicts. If this test ever passes a doctored
// equilibrium, the harness has lost its power to catch a kernel/simulator
// divergence.
func TestHarnessDetectsDivergence(t *testing.T) {
	s := mustScenario(t, "archetypes-capacity")
	links, err := s.SampleEquilibria(scenario.SampleOptions{MaxCells: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(links) == 0 {
		t.Fatal("no links sampled")
	}
	doctored := links[0].Eq.Clone()
	if !doctored.Constrained {
		t.Fatal("sampled link is unconstrained; pick a constrained cell for the divergence check")
	}
	// Skew the θ profile hard while preserving order of magnitude: the
	// packet dynamics will still converge to the true max-min shares, so
	// the doctored fluid reference must miss tolerance.
	for i := range doctored.Theta {
		if i%2 == 0 {
			doctored.Theta[i] *= 0.4
		} else {
			doctored.Theta[i] *= 1.6
		}
	}
	lr, err := ReplayEquilibrium(doctored, alloc.MaxMin{}, 1, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	failed := 0
	for _, v := range lr.Verdicts {
		if !v.Pass {
			failed++
		}
	}
	if failed == 0 {
		t.Fatalf("doctored equilibrium passed all %d verdicts; the harness cannot detect divergence", len(lr.Verdicts))
	}
}

// TestCheckMechanism pins which mechanisms the packet replay claims to
// cover.
func TestCheckMechanism(t *testing.T) {
	if err := CheckMechanism(nil); err != nil {
		t.Errorf("nil (default max-min): %v", err)
	}
	if err := CheckMechanism(alloc.MaxMin{}); err != nil {
		t.Errorf("MaxMin: %v", err)
	}
	if err := CheckMechanism(alloc.AlphaFair{Alpha: 2}); err != nil {
		t.Errorf("unweighted AlphaFair (≡ max-min): %v", err)
	}
	if err := CheckMechanism(alloc.AlphaFair{Alpha: 1, Weights: alloc.WeightByThetaHat}); err == nil {
		t.Error("weighted AlphaFair accepted; it has no packet discipline")
	}
	if err := CheckMechanism(alloc.PerCPMaxMin{}); err == nil {
		t.Error("PerCPMaxMin accepted; it has no packet discipline")
	}
}

// TestReportRendering checks the CSV and JSON serializations round-trip
// the verdicts.
func TestReportRendering(t *testing.T) {
	s := mustScenario(t, "archetypes-capacity")
	opt := testOptions()
	opt.Samples = 1
	rep, err := Scenario(s, opt)
	if err != nil {
		t.Fatal(err)
	}
	var csvBuf bytes.Buffer
	if err := WriteCSV(&csvBuf, rep); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csvBuf.String()), "\n")
	wantHeader := "scenario,cell,link,cp,metric,fluid,packet,error,tolerance,pass"
	if lines[0] != wantHeader {
		t.Errorf("CSV header = %q, want %q", lines[0], wantHeader)
	}
	verdicts, _ := rep.Counts()
	if got := len(lines) - 1; got != verdicts {
		t.Errorf("CSV has %d data rows, want %d verdicts", got, verdicts)
	}

	var jsonBuf bytes.Buffer
	if err := WriteJSON(&jsonBuf, rep); err != nil {
		t.Fatal(err)
	}
	var decoded []Report
	if err := json.Unmarshal(jsonBuf.Bytes(), &decoded); err != nil {
		t.Fatalf("JSON does not parse: %v", err)
	}
	if len(decoded) != 1 || decoded[0].Scenario != rep.Scenario {
		t.Errorf("JSON round-trip lost the report: %+v", decoded)
	}
	if v, _ := decoded[0].Counts(); v != verdicts {
		t.Errorf("JSON round-trip has %d verdicts, want %d", v, verdicts)
	}

	var txt bytes.Buffer
	if err := WriteText(&txt, rep); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(txt.String(), rep.Scenario) {
		t.Errorf("text rendering missing scenario name:\n%s", txt.String())
	}
}

// Failures returns the failing verdicts.
func (r *Report) Failures() []Verdict {
	var out []Verdict
	for i := range r.Samples {
		for _, v := range r.Samples[i].Verdicts {
			if !v.Pass {
				out = append(out, v)
			}
		}
	}
	return out
}
