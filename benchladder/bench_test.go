package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/netecon-sim/publicoption/internal/scenario"
)

// inTempDir runs the rest of the test in a fresh working directory.
func inTempDir(t *testing.T) {
	t.Helper()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(old); err != nil {
			t.Fatal(err)
		}
	})
}

// tinyOptions is the short mode: every workload at test size.
func tinyOptions(trace bool) options {
	return options{seed: 7, seconds: 300 * time.Millisecond, trace: trace, tiny: true, workers: 2}
}

// lastLine parses the result line of a run.
func lastLine(t *testing.T, out string) resultLine {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var r resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, out)
	}
	return r
}

// checkMetrics asserts that a result carries exactly the declared metrics,
// each finite and with its unit.
func checkMetrics(t *testing.T, r resultLine, defs []metricDef) {
	t.Helper()
	if len(r.Metrics) != len(defs) {
		t.Errorf("%d metrics, want %d", len(r.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := r.Metrics[d.Name]
		if !ok {
			t.Errorf("metric %s missing", d.Name)
			continue
		}
		if m.Unit != d.Unit || m.Unit == "" {
			t.Errorf("metric %s has unit %q, want %q", d.Name, m.Unit, d.Unit)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("metric %s = %g is not finite", d.Name, m.Value)
		}
	}
}

func TestShortModeEmitsEveryMetric(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.name+"/trace"+trace, func(t *testing.T) {
				inTempDir(t) // traced runs write their report to ./.bench_build
				var out, errs bytes.Buffer
				code := run([]string{"--workload", w.name, "--seed", "7", "--seconds", "0.3", "--trace", trace, "--tiny"}, &out, &errs)
				if code != 0 {
					t.Fatalf("exit %d\n%s\n%s", code, out.String(), errs.String())
				}
				r := lastLine(t, out.String())
				if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
					t.Fatalf("result not correct: %+v\n%s", r, out.String())
				}
				defs := endToEnd
				if trace == "1" {
					defs = perLayer
				}
				checkMetrics(t, r, defs)
			})
		}
	}
}

func TestRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "dyn-mix", "--trace", "2"},
		{"--workload", "dyn-mix", "--seconds", "0"},
	} {
		var out, errs bytes.Buffer
		if code := run(args, &out, &errs); code == 0 || out.Len() > 0 {
			t.Errorf("%v: exit %d, stdout %q; want a non-zero exit and no result", args, code, out.String())
		}
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, w := range workloads {
		digest := func(seed uint64) string {
			o := tinyOptions(false)
			o.seed = seed
			b := w.build(o)
			defer b.close()
			if err := b.setup(); err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			return digestJSON(b.inputs())
		}
		a, again, other := digest(3), digest(3), digest(4)
		if a != again {
			t.Errorf("%s: seed 3 gave digests %s and %s", w.name, a, again)
		}
		if a == other {
			t.Errorf("%s: seeds 3 and 4 gave the same inputs", w.name)
		}
	}
}

// The doctored-result tests perturb one output and require the output
// checks to catch it.

func TestDoctoredGridCellFails(t *testing.T) {
	b := newGridBench(tinyOptions(false)).(*gridBench)
	if err := b.setup(); err != nil {
		t.Fatal(err)
	}
	g, err := b.pool[0].RunGrid(scenario.RunOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	s := newSample()
	b.checkGrid(g, 0, 0, s)
	b.verify(s)
	if s.failed != 0 {
		t.Fatalf("honest grid failed its checks: %v", s.failures)
	}

	g.Layer("share/incumbent").Z[1][1] += 1e-3
	s = newSample()
	b.checkGrid(g, 0, 0, s)
	if s.failed == 0 {
		t.Error("a perturbed share passed the shares-sum-to-one check")
	}

	g.Layer("share/incumbent").Z[1][1] -= 1e-3
	s = newSample()
	b.checkGrid(g, 0, 0, s)
	b.pending[0].values[0] *= 1 + 1e-4
	b.verify(s)
	if s.failed == 0 {
		t.Error("a perturbed cell passed the cold re-solve check")
	}
}

func TestDoctoredSurrogateFails(t *testing.T) {
	b := newRefineBench(tinyOptions(false)).(*refineBench)
	if err := b.setup(); err != nil {
		t.Fatal(err)
	}
	res, err := b.pool[0].RunGridRefined(scenario.RunOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	s := newSample()
	b.checkSurrogate(res, 0, s)
	b.verify(s)
	if s.failed != 0 {
		t.Fatalf("honest surrogate failed its checks: %v", s.failures)
	}

	// A surrogate of another surface must fail the strided audit.
	other := sizingScenario(3, 3, 0.5, 0.9)
	other.Sweep.Grid.Refine = b.pool[0].Sweep.Grid.Refine
	wrong, err := other.RunGridRefined(scenario.RunOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	// It must also fail the leaf comparison with the audited surrogate
	// (input 5 has no first build, so only the leaves can catch it).
	s = newSample()
	b.checkSurrogate(wrong, 5, s)
	if s.failed == 0 {
		t.Error("a surrogate of the wrong surface matched the audited surrogate's leaves")
	}
	b.ref = wrong
	s = newSample()
	b.verify(s)
	if s.failed == 0 {
		t.Error("a surrogate of the wrong surface passed the strided audit")
	}

	// An unverified surrogate must fail its own contract check.
	unverified := *b.pool[0]
	spec := *b.pool[0].Sweep.Grid.Refine
	spec.Probes = -1
	grid := *unverified.Sweep.Grid
	grid.Refine = &spec
	unverified.Sweep.Grid = &grid
	res, err = unverified.RunGridRefined(scenario.RunOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	s = newSample()
	b.checkSurrogate(res, 1, s)
	if s.failed == 0 {
		t.Error("an unverified surrogate passed the contract check")
	}
}

func TestDoctoredTickFails(t *testing.T) {
	b := newDynBench(tinyOptions(false)).(*dynBench)
	if err := b.setup(); err != nil {
		t.Fatal(err)
	}
	s := newSample()
	b.measure(time.Now(), nil, s)
	if s.failed != 0 {
		t.Fatalf("honest trajectories failed their checks: %v", s.failures)
	}
	ref := b.refs[0][0]
	i := bytes.Index(ref, []byte(`"phi":`)) + len(`"phi":`)
	ref[i+2] = '0' + (ref[i+2]-'0'+1)%10
	s = newSample()
	b.measure(time.Now(), nil, s)
	if s.failed == 0 {
		t.Error("a trajectory with one perturbed tick matched its reference")
	}
}

func TestDoctoredResponseFails(t *testing.T) {
	b := newServeBench(tinyOptions(false)).(*serveBench)
	defer b.close()
	if err := b.setup(); err != nil {
		t.Fatal(err)
	}
	s := newSample()
	b.measure(time.Now(), nil, s)
	b.verify(s)
	if s.failed != 0 {
		t.Fatalf("honest responses failed their checks: %v", s.failures)
	}

	// A perturbed warm reference must fail every request for it.
	ref := b.warm[0].ref
	i := bytes.Index(ref, []byte(`"y":[`)) + len(`"y":[`)
	ref[i] = '0' + (ref[i]-'0'+1)%10
	s = newSample()
	b.measure(time.Now(), nil, s)
	if s.failed == 0 {
		t.Error("warm responses matched a perturbed reference")
	}

	// A perturbed cold body must fail the direct-run comparison.
	b.sz.audit = 1 << 30
	s = newSample()
	b.measure(time.Now(), nil, s)
	if len(b.audits) == 0 {
		t.Fatal("no cold response was kept for the audit")
	}
	body := b.audits[0].body
	j := bytes.Index(body, []byte(`"y":[`)) + len(`"y":[`)
	body[j] = '0' + (body[j]-'0'+1)%10
	s = newSample()
	b.verify(s)
	if s.failed == 0 {
		t.Error("a perturbed cold response matched the direct run")
	}
}

// TestServePlanComposition pins the serve-mix traffic: one request in ten
// cold, the warm ones split equally over the four warm classes.
func TestServePlanComposition(t *testing.T) {
	b := newServeBench(tinyOptions(false)).(*serveBench)
	defer b.close()
	if err := b.setup(); err != nil {
		t.Fatal(err)
	}
	got := make(map[string]int)
	for _, e := range b.plan {
		if e.Cold {
			got[classCold]++
		} else {
			got[b.warm[e.Warm].Class]++
		}
	}
	n := len(b.plan)
	want := map[string]int{classCold: n / 10}
	for _, c := range []string{classRuns, classQuery, classBatch, classSimulate} {
		want[c] = (n - n/10) / 4
	}
	if len(got) != len(want) {
		t.Fatalf("plan classes %v, want %v", got, want)
	}
	for c, w := range want {
		if got[c] != w {
			t.Errorf("%d %s requests in a plan of %d, want %d", got[c], c, n, w)
		}
	}
}

func TestScrub(t *testing.T) {
	for in, want := range map[string]string{
		`{"a":1,"elapsed_ms":12.5,"b":2}`:             `{"a":1,"b":2}`,
		`{"a":1,"elapsed_ms":1e-3}`:                   `{"a":1}`,
		`{"elapsed_ms":3,"a":1}`:                      `{"a":1}`,
		`{"a":1,"trace":"0123456789abcdef","b":2}`:    `{"a":1,"b":2}`,
		"{\"done\":true,\"elapsed_ms\":4}\n{\"x\":1}": "{\"done\":true}\n{\"x\":1}",
	} {
		if got := string(scrub([]byte(in))); got != want {
			t.Errorf("scrub(%s) = %s, want %s", in, got, want)
		}
	}
}

// TestBenchmarkJSONMatchesCode pins BENCHMARK.json to the metrics and
// workloads this package emits.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var spec struct {
		Workloads []jsonMetric `json:"workloads"`
		EndToEnd  []jsonMetric `json:"end_to_end"`
		PerLayer  []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the code %d", len(spec.Workloads), len(workloads))
	}
	for i := range spec.Workloads {
		if i < len(workloads) && spec.Workloads[i].Name != workloads[i].name {
			t.Errorf("workload %d: %s in BENCHMARK.json, %s in code", i, spec.Workloads[i].Name, workloads[i].name)
		}
	}
	for _, c := range []struct {
		name string
		json []jsonMetric
		code []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.json) != len(c.code) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in code", c.name, len(c.json), len(c.code))
			continue
		}
		for i, m := range c.json {
			if m.Name != c.code[i].Name || m.Unit != c.code[i].Unit {
				t.Errorf("%s %d: %s [%s] in BENCHMARK.json, %s [%s] in code", c.name, i, m.Name, m.Unit, c.code[i].Name, c.code[i].Unit)
			}
		}
	}
}
