package scenario

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"testing"
)

// updateInterior rewrites the interior-κ golden from the current solver:
// go test ./internal/scenario -run TestInteriorKappaCells -update
var updateInterior = flag.Bool("update", false, "rewrite testdata/interior_kappa.json")

// interiorGolden pins 16 interior-κ cells of each of two built-ins: rows
// 0–1 (κ = 0.25, 0.5 for duopoly-price-kappa; κ = 0.2, 0.5 for fig8-c02)
// by columns 0–7, on a 200-CP ensemble at seed 1. These are the cells
// where the class game runs its verified phase-2 dynamics, which no sizing
// cell reaches.
const interiorGolden = "testdata/interior_kappa.json"

// interiorCase is one built-in of the golden with its work budget: the
// kernel solves and aggregate evaluations its 16 cells take on one fresh
// GridWorker, which the cells may exceed by at most 5%.
type interiorCase struct {
	name          string
	solves, evals uint64
}

// Every phase-2 candidate is verified by one kernel solve, so the counts
// cover all of a class game's aggregate evaluations. When the later
// candidates of an iteration were verified against a 96-sample class curve
// instead, the kernels counted 12634 solves and 102517 evaluations on
// duopoly-price-kappa and 18909 and 175043 on fig8-c02, and the curves
// made 171047 and 74081 more evaluations that no counter saw.
var interiorCases = []interiorCase{
	{name: "duopoly-price-kappa", solves: 24549, evals: 193487},
	{name: "fig8-c02", solves: 19665, evals: 183142},
}

// TestInteriorKappaCells solves the golden's cells once for two checks:
// every coordinate and value must match the golden bit for bit, and the
// solver telemetry must stay within each built-in's work budget. The
// budget is count-only, so it holds on any machine at any load.
func TestInteriorKappaCells(t *testing.T) {
	got := make(map[string][]Cell, len(interiorCases))
	for _, c := range interiorCases {
		sc, ok := Get(c.name)
		if !ok {
			t.Fatalf("missing built-in %s", c.name)
		}
		if err := sc.ApplyEnsembleOverrides(1, 200); err != nil {
			t.Fatal(err)
		}
		job, err := sc.compile()
		if err != nil {
			t.Fatal(err)
		}
		w := job.NewWorker()
		for row := 0; row < 2; row++ {
			for col := 0; col < 8; col++ {
				got[c.name] = append(got[c.name], w.SolveCell(row, col))
			}
		}
		st := w.Stats()
		t.Logf("%s: %d solves, %d evals", c.name, st.Solves, st.Evals)
		if 20*st.Solves > 21*c.solves {
			t.Errorf("%s: %d solves over 16 cells, budget 1.05 × %d", c.name, st.Solves, c.solves)
		}
		if 20*st.Evals > 21*c.evals {
			t.Errorf("%s: %d evaluations over 16 cells, budget 1.05 × %d", c.name, st.Evals, c.evals)
		}
	}
	if *updateInterior {
		b, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(interiorGolden, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(interiorGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to capture)", err)
	}
	var want map[string][]Cell
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	for _, c := range interiorCases {
		if len(got[c.name]) != len(want[c.name]) {
			t.Fatalf("%s: %d cells, golden has %d", c.name, len(got[c.name]), len(want[c.name]))
		}
		for i, g := range got[c.name] {
			w := want[c.name][i]
			if g.Row != w.Row || g.Col != w.Col || !sameBits(g.X, w.X) || !sameBits(g.Y, w.Y) {
				t.Errorf("%s cell %d: at (%d, %d) x=%v y=%v, golden (%d, %d) x=%v y=%v",
					c.name, i, g.Row, g.Col, g.X, g.Y, w.Row, w.Col, w.X, w.Y)
				continue
			}
			if len(g.Values) != len(w.Values) {
				t.Errorf("%s (%d, %d): %d layers, golden %d", c.name, g.Row, g.Col, len(g.Values), len(w.Values))
			}
			for layer, v := range w.Values {
				if gv, ok := g.Values[layer]; !ok || !sameBits(gv, v) {
					t.Errorf("%s (%d, %d) %s = %v, golden %v", c.name, g.Row, g.Col, layer, gv, v)
				}
			}
		}
	}
}

// sameBits reports whether a and b are the same float64, bit for bit.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
