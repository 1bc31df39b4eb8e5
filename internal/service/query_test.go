package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"testing"
)

// tinyRefinedGridJSON is tinyGridJSON with a third ν row and a refine
// block, for real end-to-end refinement solves.
func tinyRefinedGridJSON(name, refineBlock string) string {
	return fmt.Sprintf(`{
		"name": %q, "title": "tiny refined grid",
		"population": {"kind": "explicit", "cps": [
			{"name": "wide", "alpha": 1, "theta_hat": 2, "v": 0.5, "phi": 1,
			 "demand": {"family": "constant"}},
			{"name": "fat", "alpha": 0.5, "theta_hat": 4, "v": 0.5, "phi": 0.5,
			 "demand": {"family": "constant"}}
		]},
		"providers": [
			{"name": "incumbent", "gamma": 0.5, "kappa": 1, "c": 0.4},
			{"name": "po", "gamma": 0.5, "public_option": true}
		],
		"sweep": {"axis": "poshare", "lo": 0.2, "hi": 0.4, "points": 3,
		          "metrics": ["phi", "share"],
		          "grid": {"axis": "nu", "values": [0.5, 1, 2], "refine": %s}}
	}`, name, refineBlock)
}

// metricValue scrapes /metrics and returns the sample whose line starts
// with prefix (metric name plus any label block), or fails.
func metricValue(t *testing.T, s *Server, prefix string) float64 {
	t.Helper()
	w := do(t, s, "GET", "/metrics", "")
	if w.Code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", w.Code)
	}
	for _, line := range strings.Split(w.Body.String(), "\n") {
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		rest := strings.TrimSpace(strings.TrimPrefix(line, prefix))
		v, err := strconv.ParseFloat(rest, 64)
		if err != nil {
			t.Fatalf("parsing %q value %q: %v", prefix, rest, err)
		}
		return v
	}
	t.Fatalf("no metric line starts with %q", prefix)
	return 0
}

func TestQueryColdBuildsWarmServesSolveFree(t *testing.T) {
	s := New(Options{})
	gridJSON := tinyRefinedGridJSON("query-tiny",
		`{"tolerance": 0.02, "max_depth": 3, "probes": 8}`)
	body := fmt.Sprintf(`{"grid_json": %s, "x": 0.3, "y": 1.5}`, gridJSON)

	// Cold: the first query builds the surrogate (a refinement run).
	w := do(t, s, "POST", "/v1/query", body)
	if w.Code != http.StatusOK {
		t.Fatalf("cold query status %d: %s", w.Code, w.Body)
	}
	cold := decode[QueryResponse](t, w)
	if cold.Source != "surrogate" || !cold.Verified {
		t.Fatalf("cold query source=%q verified=%t, want a verified surrogate answer", cold.Source, cold.Verified)
	}
	if cold.Cache != "miss" {
		t.Fatalf("cold query cache=%q, want miss", cold.Cache)
	}
	if cold.MaxError > cold.Tolerance {
		t.Fatalf("verified surrogate reports max_error %g > tolerance %g", cold.MaxError, cold.Tolerance)
	}
	if _, ok := cold.Values["phi"]; !ok {
		t.Fatalf("query values missing phi layer: %v", cold.Values)
	}
	if _, ok := cold.Values["share/po"]; !ok {
		t.Fatalf("query values missing share/po layer: %v", cold.Values)
	}

	solvesAfterCold := metricValue(t, s, "pubopt_solver_solves_total")
	if solvesAfterCold == 0 {
		t.Fatal("cold surrogate build recorded no kernel solves")
	}
	if metricValue(t, s, `pubopt_refine_points_solved_total`) == 0 {
		t.Fatal("refinement counters not published")
	}

	// Warm: different points answer from the cached surrogate with ZERO
	// kernel solves — the headline /v1/query contract.
	for _, pt := range []string{`"x": 0.25, "y": 0.7`, `"x": 0.37, "y": 1.9`} {
		w = do(t, s, "POST", "/v1/query", fmt.Sprintf(`{"grid_json": %s, %s}`, gridJSON, pt))
		if w.Code != http.StatusOK {
			t.Fatalf("warm query status %d: %s", w.Code, w.Body)
		}
		warm := decode[QueryResponse](t, w)
		if warm.Source != "surrogate" || warm.Cache != "hit" {
			t.Fatalf("warm query source=%q cache=%q, want surrogate/hit", warm.Source, warm.Cache)
		}
	}
	if got := metricValue(t, s, "pubopt_solver_solves_total"); got != solvesAfterCold {
		t.Fatalf("warm queries solved: pubopt_solver_solves_total %g -> %g", solvesAfterCold, got)
	}
	if got := metricValue(t, s, `pubopt_query_total{source="surrogate"}`); got != 3 {
		t.Fatalf("pubopt_query_total{source=surrogate} = %g, want 3", got)
	}

	// Out-of-domain points are a client error, not a clamp.
	w = do(t, s, "POST", "/v1/query", fmt.Sprintf(`{"grid_json": %s, "x": 9.5, "y": 1.5}`, gridJSON))
	if w.Code != http.StatusBadRequest {
		t.Fatalf("out-of-range query status %d: %s", w.Code, w.Body)
	}
}

func TestQueryFallsBackToSolveWhenUnverified(t *testing.T) {
	s := New(Options{})
	// probes: -1 disables verification, so the surrogate's bound never
	// holds and every answer must come from a (cached) kernel solve.
	gridJSON := tinyRefinedGridJSON("query-unverified",
		`{"tolerance": 0.02, "max_depth": 2, "probes": -1}`)
	body := fmt.Sprintf(`{"grid_json": %s, "x": 0.31, "y": 1.4}`, gridJSON)

	w := do(t, s, "POST", "/v1/query", body)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	first := decode[QueryResponse](t, w)
	if first.Source != "solve" || first.Verified {
		t.Fatalf("unverified surrogate answered source=%q verified=%t, want a solve fallback", first.Source, first.Verified)
	}
	if first.Cache != "miss" {
		t.Fatalf("first fallback cache=%q, want miss", first.Cache)
	}
	// The fallback solve is accounted like any cached solve: its event names
	// the grid and times the solve, and the solve-duration histogram counts
	// it next to the surrogate build.
	er := decode[eventsResponse](t, do(t, s, "GET", "/debug/events", ""))
	cellEvents := 0
	for _, ev := range er.Events {
		if ev.Kind != "cell" {
			continue
		}
		cellEvents++
		if ev.Name != "query-unverified" || ev.Outcome != "miss" || ev.DurationMS <= 0 {
			t.Fatalf("fallback event %+v, want a timed query-unverified miss", ev)
		}
	}
	if cellEvents != 1 {
		t.Fatalf("recorded %d fallback cell events, want 1", cellEvents)
	}
	if got := metricValue(t, s, `pubopt_solve_duration_seconds_count{outcome="miss"}`); got != 2 {
		t.Fatalf(`pubopt_solve_duration_seconds_count{outcome="miss"} = %g, want 2 (surrogate build + fallback solve)`, got)
	}

	// The same point again: the fallback cell is content-addressed, so the
	// repeat is a cache hit, not a re-solve.
	solves := metricValue(t, s, "pubopt_solver_solves_total")
	w = do(t, s, "POST", "/v1/query", body)
	again := decode[QueryResponse](t, w)
	if again.Source != "solve" || again.Cache != "hit" {
		t.Fatalf("repeat fallback source=%q cache=%q, want solve/hit", again.Source, again.Cache)
	}
	if got := metricValue(t, s, "pubopt_solver_solves_total"); got != solves {
		t.Fatalf("repeat fallback re-solved (%g -> %g)", solves, got)
	}
	if got := metricValue(t, s, `pubopt_query_total{source="solve"}`); got != 2 {
		t.Fatalf("pubopt_query_total{source=solve} = %g, want 2", got)
	}
	if first.Values["phi"] != again.Values["phi"] {
		t.Fatalf("cached fallback changed phi: %g vs %g", first.Values["phi"], again.Values["phi"])
	}
}

func TestQueryValidation(t *testing.T) {
	s := New(Options{})
	cases := []struct {
		name, method, path, body string
		wantStatus               int
		wantErr                  string
	}{
		{"GET missing x", "GET", "/v1/query?grid=po-sizing-gamma-nu&y=1", "", http.StatusBadRequest, "missing required parameter"},
		{"GET bad y", "GET", "/v1/query?grid=po-sizing-gamma-nu&x=1&y=banana", "", http.StatusBadRequest, `parameter "y"`},
		{"GET no grid", "GET", "/v1/query?x=1&y=1", "", http.StatusBadRequest, "exactly one"},
		{"POST unknown grid", "POST", "/v1/query", `{"grid": "no-such", "x": 1, "y": 1}`, http.StatusNotFound, "unknown scenario"},
		{"POST both modes", "POST", "/v1/query", `{"grid": "a", "grid_json": {"name": "b"}, "x": 1, "y": 1}`, http.StatusBadRequest, "exactly one"},
		{"POST non-grid scenario", "POST", "/v1/query", `{"grid": "neutral-baseline", "x": 1, "y": 1}`, http.StatusBadRequest, "1-D sweep"},
		{"POST unknown field", "POST", "/v1/query", `{"grid": "a", "x": 1, "y": 1, "zz": 2}`, http.StatusBadRequest, "unknown field"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := do(t, s, tc.method, tc.path, tc.body)
			if w.Code != tc.wantStatus {
				t.Fatalf("status %d, want %d: %s", w.Code, tc.wantStatus, w.Body)
			}
			var e errorResponse
			if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(e.Error, tc.wantErr) {
				t.Fatalf("error %q does not mention %q", e.Error, tc.wantErr)
			}
		})
	}
}

func TestBatchRefineStreamsPointsLeavesAndWarmsQuery(t *testing.T) {
	s := New(Options{})
	gridJSON := tinyRefinedGridJSON("batch-refined",
		`{"tolerance": 0.02, "max_depth": 3, "probes": 8}`)
	body := fmt.Sprintf(`{"grid_json": %s, "refine": true}`, gridJSON)

	w := do(t, s, "POST", "/v1/batch", body)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	frames := ndjsonFrames(t, w.Body.String())
	var header gridHeaderFrame
	if err := json.Unmarshal([]byte(strings.Split(w.Body.String(), "\n")[0]), &header); err != nil {
		t.Fatal(err)
	}
	if !header.Grid.Refine || header.Grid.Cells != 9 || len(header.Grid.Xs) != 3 {
		t.Fatalf("header %+v, want refine=true over the 3×3 seed grid", header.Grid)
	}
	points, leaves := 0, 0
	for _, f := range frames[1 : len(frames)-1] {
		switch {
		case frameHas(f, "point"):
			points++
		case frameHas(f, "leaf"):
			leaves++
		default:
			t.Fatalf("unexpected mid-stream frame: %v", f)
		}
	}
	var done refineDoneFrame
	last := strings.Split(strings.TrimSpace(w.Body.String()), "\n")
	if err := json.Unmarshal([]byte(last[len(last)-1]), &done); err != nil {
		t.Fatal(err)
	}
	if !done.Done || !done.Verified {
		t.Fatalf("done frame %+v, want done and verified", done)
	}
	// Point frames carry lattice points (probes verify silently); on a
	// fresh server nothing is reused, so frames == lattice solves.
	if done.Refine.PointsReused != 0 {
		t.Fatalf("fresh server reused %d points", done.Refine.PointsReused)
	}
	if uint64(points) != done.Refine.PointsSolved {
		t.Fatalf("streamed %d point frames, stats say %d lattice solves",
			points, done.Refine.PointsSolved)
	}
	if uint64(leaves) != done.Refine.Leaves() {
		t.Fatalf("streamed %d leaf frames, stats say %d leaves", leaves, done.Refine.Leaves())
	}
	if done.FineXs != 17 || done.FineYs != 17 {
		t.Fatalf("fine dims %d×%d, want 17×17 (3 knots, depth 3)", done.FineXs, done.FineYs)
	}

	// The refined batch cached its surrogate: a follow-up query is warm
	// and solve-free.
	solves := metricValue(t, s, "pubopt_solver_solves_total")
	qw := do(t, s, "POST", "/v1/query", fmt.Sprintf(`{"grid_json": %s, "x": 0.3, "y": 1.1}`, gridJSON))
	if qw.Code != http.StatusOK {
		t.Fatalf("query after refined batch: %d %s", qw.Code, qw.Body)
	}
	q := decode[QueryResponse](t, qw)
	if q.Source != "surrogate" || q.Cache != "hit" {
		t.Fatalf("query after refined batch source=%q cache=%q, want surrogate/hit", q.Source, q.Cache)
	}
	if got := metricValue(t, s, "pubopt_solver_solves_total"); got != solves {
		t.Fatalf("query after refined batch solved (%g -> %g)", solves, got)
	}

	// Replaying the refined batch hits the cache for every solve unit:
	// zero new kernel work.
	w = do(t, s, "POST", "/v1/batch", body)
	frames = ndjsonFrames(t, w.Body.String())
	var done2 refineDoneFrame
	last = strings.Split(strings.TrimSpace(w.Body.String()), "\n")
	if err := json.Unmarshal([]byte(last[len(last)-1]), &done2); err != nil {
		t.Fatal(err)
	}
	if done2.Refine.PointsSolved != 0 || done2.Refine.ProbeSolves != 0 {
		t.Fatalf("warm refined replay solved %d points + %d probes, want 0",
			done2.Refine.PointsSolved, done2.Refine.ProbeSolves)
	}
	for _, f := range ndjsonFrames(t, w.Body.String()) {
		if !frameHas(f, "point") {
			continue
		}
		var cacheStatus string
		json.Unmarshal(f["cache"], &cacheStatus)
		if cacheStatus != "hit" {
			t.Fatalf("warm replay streamed a non-hit point: %v", f)
		}
	}
	_ = frames
}

func TestBatchRefineValidation(t *testing.T) {
	s, _ := newStubServer(Options{})
	w := do(t, s, "POST", "/v1/batch", `{"scenarios": ["neutral-baseline"], "refine": true}`)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("refine in list mode: status %d, want 400", w.Code)
	}
	var e errorResponse
	json.Unmarshal(w.Body.Bytes(), &e)
	if !strings.Contains(e.Error, "grid mode") {
		t.Fatalf("error %q does not mention grid mode", e.Error)
	}
}
