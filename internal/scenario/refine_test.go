package scenario

import (
	"bytes"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/netecon-sim/publicoption/internal/obs"
	"github.com/netecon-sim/publicoption/internal/refine"
)

func TestRefineValidationRejects(t *testing.T) {
	base := `{
		"name": "t", "title": "t",
		"population": {"kind": "paper"},
		"providers": [
			{"name": "a", "gamma": 0.5, "kappa": 1, "c": 0.4},
			{"name": "po", "gamma": 0.5, "public_option": true}
		],
		"sweep": SWEEP
	}`
	grid2x2 := `{"axis": "poshare", "lo": 0.1, "hi": 0.4, "points": 2,
		"metrics": ["phi", "share"],
		"grid": {"axis": "nu", "values": [0.5, 1], "refine": REFINE}}`
	cases := []struct {
		name   string
		refine string
		want   string
	}{
		{"negative tolerance", `{"tolerance": -0.5}`, "refine.tolerance"},
		{"depth beyond hard cap", `{"max_depth": 9}`, "refine.max_depth"},
		{"probes below -1", `{"probes": -2}`, "refine.probes"},
		{"unknown indicator layer", `{"indicator_layer": "psi/nobody"}`,
			"not an output layer"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sweep := strings.Replace(grid2x2, "REFINE", tc.refine, 1)
			_, err := LoadString(strings.Replace(base, "SWEEP", sweep, 1))
			if err == nil {
				t.Fatal("invalid refine block accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}

	t.Run("single-point axis cannot seed", func(t *testing.T) {
		sweep := `{"axis": "poshare", "lo": 0.1, "hi": 0.4, "points": 2,
			"grid": {"axis": "nu", "values": [1], "refine": {}}}`
		_, err := LoadString(strings.Replace(base, "SWEEP", sweep, 1))
		if err == nil || !strings.Contains(err.Error(), "at least 2 points per axis") {
			t.Fatalf("1-row refined grid accepted (err=%v)", err)
		}
	})

	t.Run("empty block is valid and selects defaults", func(t *testing.T) {
		sweep := strings.Replace(grid2x2, "REFINE", "{}", 1)
		s, err := LoadString(strings.Replace(base, "SWEEP", sweep, 1))
		if err != nil {
			t.Fatal(err)
		}
		spec := refine.Spec{}
		job, err := s.CompileGrid()
		if err != nil {
			t.Fatal(err)
		}
		spec = job.RefineSpec()
		if spec.Tol != 0 || spec.MaxDepth != 0 || spec.Probes != 0 {
			t.Fatalf("empty refine block should lower to the zero Spec, got %+v", spec)
		}
		if s.Sweep.Grid.Refine == nil {
			t.Fatal("refine block lost in load")
		}
	})

	t.Run("indicator layer accepts per-provider names", func(t *testing.T) {
		sweep := strings.Replace(grid2x2, "REFINE",
			`{"indicator_layer": "share/po", "indicator_value": 0.25}`, 1)
		if _, err := LoadString(strings.Replace(base, "SWEEP", sweep, 1)); err != nil {
			t.Fatalf("valid per-provider indicator rejected: %v", err)
		}
	})
}

func TestRefineBlockChangesContentAddress(t *testing.T) {
	a := tinyGridScenario(t)
	b := tinyGridScenario(t)
	b.Sweep.Grid.Refine = &RefineSpec{Tolerance: 0.02}
	ca, err := a.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	cb, err := b.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(ca, cb) {
		t.Fatal("adding a refine block did not change the canonical bytes")
	}
	if bytes.Contains(ca, []byte("refine")) {
		t.Fatal("nil refine block leaked into canonical JSON — dense-grid content addresses changed")
	}
}

// tinyRefinedScenario is tinyGridScenario with a third ν row (the engine
// needs >= 2 intervals per axis for curvature estimation to have anything
// to chew on) and a refine block.
func tinyRefinedScenario(t *testing.T) *Scenario {
	t.Helper()
	s := tinyGridScenario(t)
	s.Sweep.Grid.Values = []float64{0.5, 1, 2}
	s.Sweep.Grid.Refine = &RefineSpec{Tolerance: 0.02, MaxDepth: 3, Probes: 8}
	return s
}

func TestRunGridRefinedDeterministicAcrossWorkers(t *testing.T) {
	// Satellite: refinement must be deterministic and worker-count
	// independent — byte-identical flattened CSV for 1, 4, and 16 workers.
	var want []byte
	var wantStats obs.RefineStats
	for _, workers := range []int{1, 4, 16} {
		s := tinyRefinedScenario(t)
		res, err := s.RunGridRefined(RunOptions{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var buf bytes.Buffer
		if err := res.Flatten(17, 9).WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want, wantStats = buf.Bytes(), res.Stats()
			continue
		}
		if !bytes.Equal(want, buf.Bytes()) {
			t.Fatalf("workers=%d produced different flattened CSV bytes", workers)
		}
		if res.Stats() != wantStats {
			t.Fatalf("workers=%d stats diverge: %+v vs %+v", workers, res.Stats(), wantStats)
		}
	}
	if wantStats.PointsSolved == 0 {
		t.Fatal("no points solved")
	}
}

// TestRefineProblemFlushReleasesWorkers pins that flush releases the
// workers without a stats sink too: a refine.Result keeps the problem's
// NewSolver, so a worker list that outlived flush would keep every
// worker's market, solver and kernel workspaces alive with the surrogate.
func TestRefineProblemFlushReleasesWorkers(t *testing.T) {
	job, err := tinyRefinedScenario(t).CompileGrid()
	if err != nil {
		t.Fatal(err)
	}
	prob, flush := job.RefineProblem(nil)
	collected := make(chan struct{})
	func() {
		ps := prob.NewSolver().(*gridPointSolver)
		ps.Solve(job.Xs[0], job.Ys[0]) // the worker builds its market
		runtime.SetFinalizer(ps.w, func(*GridWorker) { close(collected) })
	}()
	flush()
	deadline := time.After(5 * time.Second)
wait:
	for {
		runtime.GC()
		select {
		case <-collected:
			break wait
		case <-deadline:
			t.Fatal("the worker is still reachable after flush")
		case <-time.After(10 * time.Millisecond):
		}
	}
	runtime.KeepAlive(prob) // held past flush, as refine.Result holds it
}

func TestRunGridRefinedPublishesSolverStats(t *testing.T) {
	s := tinyRefinedScenario(t)
	var counters obs.Counters
	res, err := s.RunGridRefined(RunOptions{Workers: 2, Stats: &counters})
	if err != nil {
		t.Fatal(err)
	}
	snap := counters.Snapshot()
	if snap.Solves == 0 {
		t.Fatal("refined run published no solver telemetry")
	}
	st := res.Stats()
	if st.PointsSolved+st.ProbeSolves == 0 {
		t.Fatal("refined run solved nothing")
	}
}

// latticeCoords reproduces the engine's virtual fine lattice for an axis:
// index i lives in knot cell i/s0 at fraction (i%s0)/s0.
func latticeCoords(knots []float64, s0 int) []float64 {
	n := (len(knots)-1)*s0 + 1
	out := make([]float64, n)
	for i := range out {
		c, rem := i/s0, i%s0
		if c == len(knots)-1 {
			c, rem = c-1, s0
		}
		out[i] = knots[c] + (knots[c+1]-knots[c])*float64(rem)/float64(s0)
	}
	return out
}

func TestRefinedPoSizingBudgetAndEquivalence(t *testing.T) {
	// ISSUE acceptance: refining po-sizing-gamma-nu to the depth-4
	// fine-lattice resolution (145×49 = 7105 cells) must spend at most 15%
	// of the dense solve budget, and the surrogate must agree with direct
	// kernel solves within the configured tolerance on a lattice audit.
	if testing.Short() {
		t.Skip("refined po-sizing run in -short mode")
	}
	s, ok := Get("po-sizing-gamma-nu")
	if !ok {
		t.Fatal("po-sizing-gamma-nu not in registry")
	}
	s.Sweep.Grid.Refine = &RefineSpec{Tolerance: 0.01, MaxDepth: 4, Probes: 32}

	res, err := s.RunGridRefined(RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	w, h := res.FineDims()
	if w != 145 || h != 49 {
		t.Fatalf("fine lattice %d×%d, want 145×49", w, h)
	}
	st := res.Stats()
	spent := st.PointsSolved + st.ProbeSolves
	budget := uint64(w * h * 15 / 100)
	if spent > budget {
		t.Fatalf("refinement spent %d solves (lattice %d + probes %d), budget is %d (15%% of %d)",
			spent, st.PointsSolved, st.ProbeSolves, budget, w*h)
	}
	if !res.Verified() {
		t.Fatalf("surrogate failed its own probe verification: max error %g > tol %g",
			res.MaxError(), res.Tolerance())
	}

	// Audit a strided sub-lattice of the virtual fine grid against direct
	// solves through the same worker path the dense runner uses.
	job, err := s.CompileGrid()
	if err != nil {
		t.Fatal(err)
	}
	s0x := (w - 1) / (len(job.Xs) - 1)
	s0y := (h - 1) / (len(job.Ys) - 1)
	xs := latticeCoords(job.Xs, s0x)
	ys := latticeCoords(job.Ys, s0y)
	worker := job.NewWorker()
	var worst float64
	var audited int
	for iy := 0; iy < h; iy += 6 {
		for ix := 0; ix < w; ix += 8 {
			truth, ok := job.ValuesSlice(worker.SolveAt(xs[ix], ys[iy]))
			if !ok {
				t.Fatalf("worker returned incomplete layer set at (%g, %g)", xs[ix], ys[iy])
			}
			got, err := res.Values(xs[ix], ys[iy])
			if err != nil {
				t.Fatalf("surrogate rejected in-range point (%g, %g): %v", xs[ix], ys[iy], err)
			}
			for li := range truth {
				e := math.Abs(got[li]-truth[li]) / res.Scale(li)
				if e > worst {
					worst = e
				}
			}
			audited++
		}
	}
	// The probe contract bounds error at random points by tol; the strided
	// audit hits the same interpolation regime, with a little headroom for
	// points the probe draw happened not to sample.
	if limit := 1.5 * res.Tolerance(); worst > limit {
		t.Fatalf("lattice audit: worst normalized error %g exceeds %g (%d points audited)",
			worst, limit, audited)
	}
	if audited < 100 {
		t.Fatalf("audit covered only %d points", audited)
	}
	t.Logf("spent %d/%d solves (%.1f%%), audit worst error %.4g over %d points, leaves %d",
		spent, w*h, 100*float64(spent)/float64(w*h), worst, audited, res.Stats().Leaves())
}
