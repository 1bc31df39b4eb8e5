package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/netecon-sim/publicoption/internal/dynamics"
)

// tinySimJSON is a cheap inline dynamics scenario (explicit two-CP
// population, a handful of ticks) used for real end-to-end simulate solves.
func tinySimJSON(name string, ticks int) string {
	return fmt.Sprintf(`{
		"name": %q, "title": "tiny sim",
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
		"sweep": {"axis": "time", "nu": 3, "metrics": ["phi", "share"]},
		"dynamics": {"ticks": %d, "inertia": 0.5}
	}`, name, ticks)
}

func simDone(t *testing.T, body string) simDoneFrame {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(body), "\n")
	var done simDoneFrame
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &done); err != nil {
		t.Fatalf("last frame is not a done frame: %q (%v)", lines[len(lines)-1], err)
	}
	return done
}

func TestSimulateStreamsTicksAndCachesPerTick(t *testing.T) {
	s := New(Options{})
	body := fmt.Sprintf(`{"scenario_json": %s}`, tinySimJSON("tiny-sim", 5))

	w := do(t, s, "POST", "/v1/simulate", body)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q, want application/x-ndjson", ct)
	}
	frames := ndjsonFrames(t, w.Body.String())
	if len(frames) != 7 {
		t.Fatalf("got %d frames, want header + 5 ticks + done:\n%s", len(frames), w.Body)
	}
	var hdr simHeaderFrame
	if err := json.Unmarshal(w.Body.Bytes()[:strings.Index(w.Body.String(), "\n")], &hdr); err != nil {
		t.Fatal(err)
	}
	if hdr.Sim.Name != "tiny-sim" || hdr.Sim.Ticks != 5 || len(hdr.Sim.Providers) != 2 {
		t.Fatalf("header %+v", hdr.Sim)
	}
	for i := 1; i <= 5; i++ {
		if !frameHas(frames[i], "tick") {
			t.Fatalf("frame %d is not a tick frame: %v", i, frames[i])
		}
		var rec dynamics.TickRecord
		if err := json.Unmarshal(frames[i]["tick"], &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Tick != i-1 {
			t.Fatalf("frame %d carries tick %d, want %d (in order)", i, rec.Tick, i-1)
		}
		var cacheStatus string
		json.Unmarshal(frames[i]["cache"], &cacheStatus)
		if cacheStatus != "miss" {
			t.Fatalf("cold tick %d cache=%q, want miss", i-1, cacheStatus)
		}
	}
	if done := simDone(t, w.Body.String()); !done.Done || done.Ticks != 5 || done.Solved != 5 || done.CacheHits != 0 {
		t.Fatalf("cold done frame %+v", done)
	}

	// The identical warm request must solve zero ticks.
	w = do(t, s, "POST", "/v1/simulate", body)
	frames = ndjsonFrames(t, w.Body.String())
	for i := 1; i <= 5; i++ {
		var cacheStatus string
		json.Unmarshal(frames[i]["cache"], &cacheStatus)
		if cacheStatus != "hit" {
			t.Fatalf("warm tick %d cache=%q, want hit", i-1, cacheStatus)
		}
	}
	if done := simDone(t, w.Body.String()); done.Solved != 0 || done.CacheHits != 5 {
		t.Fatalf("warm done frame %+v", done)
	}

	// The address is the canonical spec bytes (syntactic, per
	// Scenario.CanonicalJSON): editing the spec re-solves every tick
	// rather than aliasing into the old trajectory's entries.
	edited := strings.Replace(body, `"inertia": 0.5`, `"inertia": 0.6`, 1)
	if done := simDone(t, do(t, s, "POST", "/v1/simulate", edited).Body.String()); done.Solved != 5 || done.CacheHits != 0 {
		t.Fatalf("edited spec reused stale cache entries: %+v", done)
	}

	// The per-tick counter saw exactly the two cold runs' solves (5 + 5);
	// the warm replay added nothing.
	mw := do(t, s, "GET", "/metrics", "")
	if !strings.Contains(mw.Body.String(), "pubopt_sim_ticks_total 10") {
		t.Fatalf("pubopt_sim_ticks_total missing or wrong:\n%s", mw.Body)
	}
}

func TestSimulateClientDisconnectBanksPrefix(t *testing.T) {
	s := New(Options{})
	body := fmt.Sprintf(`{"scenario_json": %s}`, tinySimJSON("tiny-sim-dc", 8))

	// The "client" goes away after the header plus two tick frames.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &cancelingWriter{after: 3, cancel: cancel}
	r := httptest.NewRequest("POST", "/v1/simulate", strings.NewReader(body)).WithContext(ctx)
	s.ServeHTTP(w, r)
	out := w.buf.String()
	if strings.Contains(out, `"done":true`) {
		t.Fatalf("stream completed despite disconnect:\n%s", out)
	}
	frames := ndjsonFrames(t, out)
	if !frameHas(frames[0], "sim") {
		t.Fatalf("missing header frame before disconnect: %v", frames[0])
	}

	// The ticks solved before the disconnect were banked: a fresh request
	// resumes from the cached prefix instead of starting over.
	w2 := do(t, s, "POST", "/v1/simulate", body)
	done := simDone(t, w2.Body.String())
	if !done.Done || done.Ticks != 8 {
		t.Fatalf("post-disconnect done frame %+v", done)
	}
	if done.CacheHits < 2 {
		t.Fatalf("prefix not reused after disconnect (hits=%d)", done.CacheHits)
	}
	if done.Solved+done.CacheHits != 8 {
		t.Fatalf("solved %d + cached %d != 8 ticks", done.Solved, done.CacheHits)
	}
}

func TestSimulateValidation(t *testing.T) {
	s := New(Options{})
	cases := []struct {
		name string
		body string
		code int
	}{
		{"empty body", "", http.StatusBadRequest},
		{"neither mode", `{}`, http.StatusBadRequest},
		{"both modes", fmt.Sprintf(`{"scenario": "dyn-convergence", "scenario_json": %s}`, tinySimJSON("x", 2)), http.StatusBadRequest},
		{"unknown name", `{"scenario": "no-such-scenario"}`, http.StatusNotFound},
		{"static scenario by name", `{"scenario": "neutral-baseline"}`, http.StatusBadRequest},
		{"grid scenario by name", `{"scenario": "po-sizing-gamma-nu"}`, http.StatusBadRequest},
		{"invalid inline", `{"scenario_json": {"name": "bad name!"}}`, http.StatusBadRequest},
		{"static inline", `{"scenario_json": {"name": "x", "title": "x", "population": {"kind": "archetypes"}, "providers": [{"name": "a", "gamma": 1}], "sweep": {"axis": "nu", "values": [1000]}}}`, http.StatusBadRequest},
		{"unknown field", `{"scenario": "dyn-convergence", "bogus": 1}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := do(t, s, "POST", "/v1/simulate", tc.body)
			if w.Code != tc.code {
				t.Fatalf("status %d, want %d (body %s)", w.Code, tc.code, w.Body)
			}
		})
	}
}

// TestStaticEndpointsRejectDynamics pins the dispatch boundary from the
// other side: every static solve surface refuses a dynamics scenario and
// points at /v1/simulate.
func TestStaticEndpointsRejectDynamics(t *testing.T) {
	s, calls := newStubServer(Options{})

	w := do(t, s, "POST", "/v1/runs", `{"scenario": "dyn-convergence"}`)
	if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), "/v1/simulate") {
		t.Fatalf("/v1/runs: status %d body %s", w.Code, w.Body)
	}

	w = do(t, s, "POST", "/v1/batch", `{"grid": "dyn-convergence"}`)
	if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), "/v1/simulate") {
		t.Fatalf("/v1/batch grid mode: status %d body %s", w.Code, w.Body)
	}

	w = do(t, s, "POST", "/v1/batch", `{"scenarios": ["dyn-convergence"]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("/v1/batch list mode: status %d", w.Code)
	}
	frames := ndjsonFrames(t, w.Body.String())
	var msg string
	json.Unmarshal(frames[0]["error"], &msg)
	if !strings.Contains(msg, "simulate") {
		t.Fatalf("list-mode error %q does not point at /v1/simulate", msg)
	}
	if calls.Load() != 0 {
		t.Fatalf("a dynamics scenario reached the static runner %d times", calls.Load())
	}
	assertRejectedBeforeSolve(t, s)
}

// TestScenarioListMarksDynamic checks GET /v1/scenarios advertises which
// entries need the simulate endpoint.
func TestScenarioListMarksDynamic(t *testing.T) {
	s := New(Options{})
	w := do(t, s, "GET", "/v1/scenarios", "")
	infos := decode[[]ScenarioInfo](t, w)
	byName := make(map[string]ScenarioInfo, len(infos))
	for _, in := range infos {
		byName[in.Name] = in
	}
	if in, ok := byName["dyn-convergence"]; !ok || !in.Dynamic {
		t.Fatalf("dyn-convergence not marked dynamic: %+v", in)
	}
	if in := byName["neutral-baseline"]; in.Dynamic {
		t.Fatalf("neutral-baseline wrongly marked dynamic: %+v", in)
	}
}
