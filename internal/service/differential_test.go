package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/netecon-sim/publicoption/internal/refine"
	"github.com/netecon-sim/publicoption/internal/scenario"
)

// The cross-route differential battery. Theorem 1 and Assumption 5 give
// every question the model is asked one answer, so every way of asking it
// must carry the same bytes: the library call at any worker count,
// POST /v1/runs on a fresh server at any per-solve worker count, a
// /v1/batch list or grid stream, and a warm replay of each. The unit is a
// cell, a pure function of its coordinates, so every point a refined
// surrogate solves — seed knot, finer lattice point or probe — is bit for
// bit what a fresh worker solves there, and a /v1/query fallback at a seed
// knot is the dense batch's cache entry. No answer may depend on what the
// cache already held.

// differentialCPs is the ensemble size the built-ins are shrunk to.
const differentialCPs = 24

// differentialCols caps a built-in grid's column count; a 1-D sweep keeps
// its full length.
const differentialCols = 9

// differentialScenarios returns the battery's inputs: every static
// provider-market built-in at differentialCPs (regime comparisons and
// batched populations solve outside the cell executor and are left out),
// generated markets the built-ins do not declare (generatedScenarios), and
// the inline tiny scenarios of the route transcripts. The 1-D sweeps and
// the grids come back separately.
func differentialScenarios(t *testing.T) (oneD, grids []*scenario.Scenario) {
	t.Helper()
	for _, sc := range scenario.All() {
		if sc.IsDynamic() || sc.Regulation != nil || sc.Population.Batch > 0 {
			continue
		}
		if k := sc.Population.Kind; k == "paper" || k == "ensemble" {
			if err := sc.ApplyEnsembleOverrides(7, differentialCPs); err != nil {
				t.Fatal(err)
			}
		}
		if !sc.IsGrid() {
			oneD = append(oneD, sc)
			continue
		}
		if sc.Sweep.Points > differentialCols {
			sc.Sweep.Points = differentialCols
		}
		grids = append(grids, sc)
	}
	oneD = append(oneD, generatedScenarios(t, 22, 8)...)
	for _, raw := range []string{tinyRunJSON, tinyGridJSON("tiny-grid", "1, 2")} {
		sc, err := scenario.LoadString(raw)
		if err != nil {
			t.Fatal(err)
		}
		if sc.IsGrid() {
			grids = append(grids, sc)
		} else {
			oneD = append(oneD, sc)
		}
	}
	return oneD, grids
}

// generatedScenarios derives n valid small 1-D scenarios, deterministically
// from seed, from the static provider-market 1-D built-ins — part of the
// FuzzScenarioValidate seed corpus. Each keeps a drawn built-in's metrics,
// redraws its ensemble (at most differentialCPs CPs) and replaces its
// market with one of the shapes the built-ins leave out: three and four
// ISPs, interior κ, and revenue rebates, with capacity, price or κ swept
// over three points. Every scenario goes through the loader, so it is one
// FuzzScenarioValidate would accept.
func generatedScenarios(t *testing.T, seed int64, n int) []*scenario.Scenario {
	t.Helper()
	var corpus []*scenario.Scenario
	for _, sc := range scenario.All() {
		k := sc.Population.Kind
		if sc.IsDynamic() || sc.IsGrid() || sc.Regulation != nil || sc.Population.Batch > 0 || (k != "paper" && k != "ensemble") {
			continue
		}
		corpus = append(corpus, sc)
	}
	shapes := []struct {
		isps             int
		interior, rebate bool
	}{{3, true, false}, {4, false, false}, {2, true, false}, {2, false, true}, {2, true, true}, {4, true, false}}
	rng := rand.New(rand.NewSource(seed))
	draw := func(lo, hi float64) float64 { return lo + (hi-lo)*rng.Float64() }
	var out []*scenario.Scenario
	for i := range n {
		shape := shapes[i%len(shapes)]
		sc := *corpus[rng.Intn(len(corpus))]
		sc.Name = fmt.Sprintf("generated-%d-from-%s", i, sc.Name)
		sc.Population.Kind, sc.Population.Seed, sc.Population.N = "ensemble", rng.Uint64()|1, 12+rng.Intn(differentialCPs-11)

		// The first ISP differentiates (interior or full κ); the last is
		// a Public Option; any between are neutral or κ = 1.
		sc.Providers = make([]scenario.ProviderSpec, shape.isps)
		left := 1.0
		for k := range sc.Providers {
			p := &sc.Providers[k]
			p.Name = fmt.Sprintf("isp%d", k)
			if k < shape.isps-1 {
				p.Gamma = left * draw(0.25, 0.6)
				left -= p.Gamma
			} else {
				p.Gamma = left
			}
			switch {
			case k == shape.isps-1:
				p.Name, p.PublicOption = "po", true
			case k == 0 && shape.interior:
				p.Kappa, p.C = draw(0.2, 0.8), draw(0.1, 0.7)
			case k%2 == 0:
				p.Kappa, p.C = 1, draw(0.1, 0.7)
			}
		}
		if shape.rebate {
			sc.Providers[0].Sigma = draw(0.2, 0.8)
		}

		sw := scenario.SweepSpec{Metrics: sc.Sweep.Metrics, OfSaturation: true, Nu: draw(0.2, 0.8)}
		switch axis := []string{scenario.AxisNu, scenario.AxisPrice, scenario.AxisKappa}[rng.Intn(3)]; axis {
		case scenario.AxisNu:
			sw.Axis, sw.Values, sw.Nu = axis, []float64{draw(0.1, 0.3), draw(0.4, 0.6), draw(0.7, 1.2)}, 0
		case scenario.AxisPrice:
			sw.Axis, sw.Values = axis, []float64{draw(0.05, 0.3), draw(0.35, 0.6), draw(0.65, 0.95)}
		default:
			sw.Axis, sw.Values = axis, []float64{draw(0.1, 0.4), draw(0.45, 0.7), 1}
		}
		sc.Sweep = sw

		loaded, err := scenario.LoadString(string(mustJSON(t, &sc)))
		if err != nil {
			t.Fatalf("generated scenario %d is invalid: %v", i, err)
		}
		out = append(out, loaded)
	}
	return out
}

// mustJSON marshals v or fails the test.
func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// post sends one request and fails unless it answers 200.
func post(t *testing.T, s *Server, path, body string) string {
	t.Helper()
	w := do(t, s, "POST", path, body)
	if w.Code != http.StatusOK {
		t.Fatalf("POST %s: %d %s", path, w.Code, w.Body.String())
	}
	return w.Body.String()
}

// runTables is the tables field of a /v1/runs response or a list-mode
// frame, re-marshaled, with the cache outcome the route reported.
func runTables(t *testing.T, raw []byte) (tables []byte, cacheStatus string) {
	t.Helper()
	var resp RunResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatalf("decoding %q: %v", raw, err)
	}
	return mustJSON(t, resp.Tables), resp.Cache
}

func TestCrossRouteDifferential(t *testing.T) {
	oneD, grids := differentialScenarios(t)

	t.Run("1-D", func(t *testing.T) {
		t.Parallel()
		want := make([][]byte, len(oneD))
		var list []string
		for i, sc := range oneD {
			for _, w := range []int{1, 2, 8} {
				tables, err := sc.Run(scenario.RunOptions{Workers: w})
				if err != nil {
					t.Fatal(err)
				}
				got := mustJSON(t, tables)
				if want[i] == nil {
					want[i] = got
				} else if !bytes.Equal(got, want[i]) {
					t.Errorf("%s: Run at %d workers differs from 1 worker", sc.Name, w)
				}
			}
			inline := string(mustJSON(t, sc))
			list = append(list, inline)
			for _, w := range []int{1, 4} {
				s := New(Options{Workers: 1})
				for _, wantCache := range []string{"miss", "hit"} {
					got, status := runTables(t, []byte(post(t, s, "/v1/runs", fmt.Sprintf(`{"scenario_json": %s, "workers": %d}`, inline, w))))
					if status != wantCache || !bytes.Equal(got, want[i]) {
						t.Errorf("%s: /v1/runs at %d per-solve workers (%s) differs from Run", sc.Name, w, status)
					}
				}
			}
		}
		s := New(Options{Workers: 1})
		body := fmt.Sprintf(`{"scenarios": [%s], "workers": 4}`, strings.Join(list, ","))
		for _, wantCache := range []string{"miss", "hit"} {
			frames := strings.Split(strings.TrimSpace(post(t, s, "/v1/batch", body)), "\n")
			if len(frames) != len(oneD)+1 {
				t.Fatalf("batch list streamed %d frames, want %d", len(frames), len(oneD)+1)
			}
			for i, f := range frames[:len(oneD)] {
				got, status := runTables(t, []byte(f))
				if status != wantCache || !bytes.Equal(got, want[i]) {
					t.Errorf("%s: /v1/batch list frame (%s) differs from Run", oneD[i].Name, status)
				}
			}
		}
	})

	t.Run("grids", func(t *testing.T) {
		t.Parallel()
		for _, sc := range grids {
			var want map[[2]int][]byte
			for _, w := range []int{1, 4} {
				g, err := sc.RunGrid(scenario.RunOptions{Workers: w})
				if err != nil {
					t.Fatal(err)
				}
				got := make(map[[2]int][]byte)
				for r, y := range g.Ys {
					for c, x := range g.Xs {
						vals := make(map[string]float64, len(g.Layers))
						for _, l := range g.Layers {
							vals[l.Name] = l.Z[r][c]
						}
						got[[2]int{r, c}] = mustJSON(t, scenario.Cell{Row: r, Col: c, X: x, Y: y, Values: vals})
					}
				}
				if want == nil {
					want = got
				}
				compareCells(t, fmt.Sprintf("%s RunGrid at %d workers", sc.Name, w), got, want)
			}
			inline := mustJSON(t, sc)
			for _, w := range []int{1, 4} {
				s := New(Options{Workers: 1})
				body := fmt.Sprintf(`{"grid_json": %s, "workers": %d}`, inline, w)
				for _, wantCache := range []string{"miss", "hit"} {
					compareCells(t, fmt.Sprintf("%s /v1/batch grid at %d per-solve workers", sc.Name, w),
						batchCells(t, post(t, s, "/v1/batch", body), wantCache), want)
				}
			}
		}
	})

	t.Run("refined vs dense", func(t *testing.T) {
		t.Parallel()
		for _, raw := range []string{
			tinyRefinedGridJSON("tiny-refined", `{"tolerance": 0.02, "max_depth": 3, "probes": 8}`),
			tinyRefinedGridJSON("tiny-unverified", `{"tolerance": 0.02, "max_depth": 2, "probes": -1}`),
		} {
			sc, err := scenario.LoadString(raw)
			if err != nil {
				t.Fatal(err)
			}
			job, err := sc.CompileGrid()
			if err != nil {
				t.Fatal(err)
			}
			// Every materialized lattice point and every probe (Store sees
			// both; OnPoint the lattice points only) is a fresh worker's
			// solve at its coordinates.
			lattice := make(map[[2]float64]bool)
			var solved int
			prob, flush := job.RefineProblem(nil)
			res, err := refine.Run(context.Background(), prob, job.RefineSpec(), refine.Options{
				Workers: 2,
				OnPoint: func(p refine.Point) error {
					lattice[[2]float64{p.X, p.Y}] = true
					return nil
				},
				Store: func(x, y float64, vals []float64) {
					solved++
					want, _ := job.ValuesSlice(job.NewWorker().SolveAt(x, y))
					if !bytes.Equal(mustJSON(t, vals), mustJSON(t, want)) {
						t.Errorf("%s at (%g, %g) (lattice point: %v): refined %v, fresh worker %v", sc.Name, x, y, lattice[[2]float64{x, y}], vals, want)
					}
				},
			})
			flush()
			if err != nil {
				t.Fatal(err)
			}
			if st := res.Stats(); uint64(solved) != st.PointsSolved+st.ProbeSolves || uint64(len(lattice)) != st.PointsSolved {
				t.Fatalf("%s: Store saw %d points and OnPoint %d, stats %+v", sc.Name, solved, len(lattice), st)
			}
			dense, err := sc.RunGrid(scenario.RunOptions{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			for li, l := range dense.Layers {
				for r, y := range dense.Ys {
					for c, x := range dense.Xs {
						got, err := res.At(x, y, li)
						if err != nil {
							t.Fatal(err)
						}
						if got != l.Z[r][c] { //pubopt:allow(floatcmp): a seed knot is the dense cell, bit for bit
							t.Errorf("%s %s at (%g, %g): refined %v, dense %v", sc.Name, l.Name, x, y, got, l.Z[r][c])
						}
					}
				}
			}
		}
	})

	t.Run("cache history", func(t *testing.T) {
		t.Parallel()
		for _, name := range scenario.GridNames() {
			sc := historyGrid(t, name)
			full := fmt.Sprintf(`{"grid_json": %s}`, mustJSON(t, sc))
			want := batchCells(t, post(t, New(Options{}), "/v1/batch", full), "miss")

			sub := historyGrid(t, name)
			sub.Sweep.Values = []float64{sc.Sweep.Values[3]}
			subset := historyGrid(t, name)
			subset.Sweep.Values = []float64{sc.Sweep.Values[1], sc.Sweep.Values[3], sc.Sweep.Values[4]}
			refined := historyGrid(t, name)
			refined.Sweep.Grid.Refine = &scenario.RefineSpec{MaxDepth: 2, Probes: 8}
			unverified := historyGrid(t, name)
			unverified.Sweep.Grid.Refine = &scenario.RefineSpec{MaxDepth: 1, Probes: -1}
			job, err := unverified.CompileGrid()
			if err != nil {
				t.Fatal(err)
			}
			onGrid := [2]float64{job.Xs[2], job.Ys[0]}
			offGrid := [2]float64{(job.Xs[1] + job.Xs[2]) / 2, (job.Ys[0] + job.Ys[1]) / 2}
			for _, history := range []struct {
				what  string
				serve func(s *Server)
			}{
				{"one-column sub-grid", func(s *Server) {
					post(t, s, "/v1/batch", fmt.Sprintf(`{"grid_json": %s}`, mustJSON(t, sub)))
				}},
				{"column-subset sub-grid", func(s *Server) {
					post(t, s, "/v1/batch", fmt.Sprintf(`{"grid_json": %s}`, mustJSON(t, subset)))
				}},
				{"refined batch", func(s *Server) {
					post(t, s, "/v1/batch", fmt.Sprintf(`{"grid_json": %s, "refine": true}`, mustJSON(t, refined)))
				}},
				{"unverified query fallbacks", func(s *Server) {
					for _, at := range [][2]float64{onGrid, offGrid} {
						body := post(t, s, "/v1/query", fmt.Sprintf(`{"grid_json": %s, "x": %v, "y": %v}`, mustJSON(t, unverified), at[0], at[1]))
						if !strings.Contains(body, `"source":"solve"`) {
							t.Fatalf("%s: query at %v did not fall back to a solve: %s", name, at, body)
						}
					}
				}},
				{"disconnected stream", func(s *Server) {
					ctx, cancel := context.WithCancel(context.Background())
					defer cancel()
					r := httptest.NewRequest("POST", "/v1/batch", strings.NewReader(full)).WithContext(ctx)
					s.ServeHTTP(&cancelingWriter{after: 3, cancel: cancel}, r)
				}},
			} {
				s := New(Options{})
				history.serve(s)
				compareCells(t, fmt.Sprintf("%s after a %s", name, history.what),
					batchCells(t, post(t, s, "/v1/batch", full), ""), want)
			}

			// A column subset is cached cell by cell, so the full grid
			// served after it hits every cell they share.
			s := New(Options{})
			post(t, s, "/v1/batch", fmt.Sprintf(`{"grid_json": %s}`, mustJSON(t, subset)))
			hits := 0
			for _, line := range strings.Split(post(t, s, "/v1/batch", full), "\n") {
				if strings.HasPrefix(line, `{"cell":`) && strings.Contains(line, `"cache":"hit"`) {
					hits++
				}
			}
			if want := 3 * len(sc.Sweep.Grid.Values); hits != want {
				t.Errorf("%s: full grid after a column subset hit %d cells, want the %d shared", name, hits, want)
			}

			// A /v1/query fallback at a seed knot is the dense batch's cell:
			// a cache hit with the batch frame's values.
			s = New(Options{})
			post(t, s, "/v1/batch", full)
			var q QueryResponse
			body := post(t, s, "/v1/query", fmt.Sprintf(`{"grid_json": %s, "x": %v, "y": %v}`, mustJSON(t, unverified), onGrid[0], onGrid[1]))
			if err := json.Unmarshal([]byte(body), &q); err != nil {
				t.Fatal(err)
			}
			knot := want[[2]int{0, 2}]
			var cell scenario.Cell
			if err := json.Unmarshal(knot, &cell); err != nil {
				t.Fatal(err)
			}
			if q.Source != "solve" || q.Cache != "hit" || !bytes.Equal(mustJSON(t, q.Values), mustJSON(t, cell.Values)) {
				t.Errorf("%s: query fallback at seed knot %v after a dense batch: source %s, cache %s, values %v; want solve, hit, %v",
					name, onGrid, q.Source, q.Cache, q.Values, cell.Values)
			}
		}
	})
}

// historyGrid is grid built-in name on a 60-CP ensemble, cut to its first 6
// columns and first 2 rows, both as explicit values.
func historyGrid(t *testing.T, name string) *scenario.Scenario {
	t.Helper()
	sc, ok := scenario.Get(name)
	if !ok {
		t.Fatalf("no built-in %q", name)
	}
	if k := sc.Population.Kind; k == "paper" || k == "ensemble" {
		if err := sc.ApplyEnsembleOverrides(7, 60); err != nil {
			t.Fatal(err)
		}
	}
	sw, g := &sc.Sweep, sc.Sweep.Grid
	xs, ys := sw.XValues(), g.RowValues()
	sw.Values, sw.Lo, sw.Hi, sw.Points = xs[:min(6, len(xs))], 0, 0, 0
	g.Values, g.Lo, g.Hi, g.Points = ys[:min(2, len(ys))], 0, 0, 0
	return sc
}

// batchCells parses a dense /v1/batch grid stream into its cells, keyed by
// (row, col) and re-marshaled, requiring every cell to report wantCache
// unless it is empty.
func batchCells(t *testing.T, body, wantCache string) map[[2]int][]byte {
	t.Helper()
	cells := make(map[[2]int][]byte)
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if !strings.HasPrefix(line, `{"cell":`) {
			continue
		}
		var f cellFrame
		if err := json.Unmarshal([]byte(line), &f); err != nil {
			t.Fatal(err)
		}
		if wantCache != "" && f.Cache != wantCache {
			t.Errorf("cell (%d,%d) cache %q, want %q", f.Cell.Row, f.Cell.Col, f.Cache, wantCache)
		}
		cells[[2]int{f.Cell.Row, f.Cell.Col}] = mustJSON(t, f.Cell)
	}
	return cells
}

// compareCells requires got to hold exactly want's cells, byte for byte.
func compareCells(t *testing.T, what string, got, want map[[2]int][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d cells, want %d", what, len(got), len(want))
	}
	for at, w := range want {
		if !bytes.Equal(got[at], w) {
			t.Errorf("%s: cell %v is %s, want %s", what, at, got[at], w)
		}
	}
}
