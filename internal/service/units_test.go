package service

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strings"
	"testing"

	"github.com/netecon-sim/publicoption/internal/cache"
	"github.com/netecon-sim/publicoption/internal/dynamics"
	"github.com/netecon-sim/publicoption/internal/obs"
	"github.com/netecon-sim/publicoption/internal/scenario"
	"github.com/netecon-sim/publicoption/internal/sweep"
)

// TestSplicedFramesMatchMarshal: every frame spliced from a unit's stored
// encoding is byte for byte json.Marshal of its wire struct, for each unit
// kind, cache status and trace echo.
func TestSplicedFramesMatchMarshal(t *testing.T) {
	sc, err := scenario.Load(strings.NewReader(tinyGridJSON("splice-grid", "1, 2")))
	if err != nil {
		t.Fatal(err)
	}
	job, err := sc.CompileGrid()
	if err != nil {
		t.Fatal(err)
	}
	cells := []struct {
		row, col int
		x, y     float64
		vals     []float64
	}{
		{0, 0, 0.2, 1, []float64{12.5}},
		{1, 2, 0.30000000000000004, 2, []float64{math.Copysign(0, -1)}},
		{7, 11, 1e-7, 1e21, []float64{-3.0000000000000004e-9}},
		{3, 4, 123456789.125, 9.999999999999999e-07, []float64{1.7976931348623157e308}},
	}
	ticks := []dynamics.TickRecord{
		{Tick: 0, Multiplier: 1, NuBar: 3, Caps: []float64{1.5, 1.5}, Kappas: []float64{1, 0}, Prices: []float64{0.4, 0},
			Shares: []float64{0.5, 0.5}, Phi: 10.25, PhiPer: []float64{10, 10.5}, Psi: []float64{0.1, 0}, Util: []float64{0.9, 1}},
		{Tick: 17, Multiplier: 1.0000000000000002, NuBar: 2.9999999999999996, Caps: []float64{}, Phi: 1e-300,
			PhiGap: 4.4e-16, PODelay: 0.125, Solver: obs.SolveStats{Solves: 12, Evals: 80, Residual: 3e-13}},
	}
	runs := []*RunResult{
		{Kind: "scenario", Name: "stub", Title: "stub", Tables: stubTables()},
		{Kind: "scenario", Name: "esc", Title: `<a & "b">`, Tables: []*sweep.Table{{
			Title: "t\u2028", Series: []sweep.Series{{Name: "phi", X: []float64{1e-7, 0}, Y: []float64{2e21, -1}}},
		}}},
		{Kind: "scenario", Name: "empty"},
	}
	statuses := []cache.Status{cache.Hit, cache.Miss, cache.Coalesced}
	elapsed := []float64{0, 0.001, 12.345, 1e-7, 123456.789}

	check := func(what string, got []byte, err error, wire any) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		want, err := json.Marshal(wire)
		if err != nil {
			t.Fatalf("%s: marshalling the wire struct: %v", what, err)
		}
		if string(got) != string(want) {
			t.Errorf("%s:\n spliced %s\n marshal %s", what, got, want)
		}
	}
	for _, trace := range []string{"", "0123456789abcdef", `q"<&>`} {
		echo := traceEcho(trace)
		for _, status := range statuses {
			for _, c := range cells {
				u := newCellUnit(job, c.vals)
				got, err := appendCellFrame(nil, c.row, c.col, c.x, c.y, u, status, echo)
				wire := cellFrame{Cell: scenario.Cell{Row: c.row, Col: c.col, X: c.x, Y: c.y, Values: job.ValuesMap(c.vals)}, Cache: status.String(), Trace: trace}
				check(fmt.Sprintf("cell %v %s trace %q", c, status, trace), got, err, wire)
			}
			for _, rec := range ticks {
				got, err := appendTickFrame(nil, newTickUnit(rec), status, echo)
				check(fmt.Sprintf("tick %d %s trace %q", rec.Tick, status, trace), got, err, simTickFrame{Tick: rec, Cache: status.String(), Trace: trace})
			}
			for _, r := range runs {
				u := newRunUnit(r)
				for i, e := range elapsed {
					resp := RunResponse{RunResult: *r, Cache: status.String(), ElapsedMS: e, Trace: trace}
					got, err := appendRunResponse(nil, u, status, e, echo)
					check(fmt.Sprintf("run %s %s elapsed %v trace %q", r.Name, status, e, trace), got, err, resp)
					got, err = appendScenarioFrame(nil, i*37, u, status, e, echo)
					check(fmt.Sprintf("list entry %d %s %s trace %q", i*37, r.Name, status, trace), got, err, scenarioFrame{Index: i * 37, RunResponse: resp})
				}
			}
		}
	}
}

// FuzzAppendFloat: appendFloat writes every finite float64 as
// encoding/json does.
func FuzzAppendFloat(f *testing.F) {
	for _, v := range []float64{
		0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		0x1p-1022 - math.SmallestNonzeroFloat64, -(0x1p-1022 - math.SmallestNonzeroFloat64), // largest subnormals
		1e-6, -1e-6, math.Nextafter(1e-6, 0), -math.Nextafter(1e-6, 0),
		1e21, -1e21, math.Nextafter(1e21, 0), -math.Nextafter(1e21, 0),
		math.MaxFloat64, -math.MaxFloat64,
		1e-7, 123456.789, 0.1 + 0.2,
	} {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		v := math.Float64frombits(bits)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return
		}
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("json.Marshal(%v): %v", v, err)
		}
		if got := appendFloat(nil, v); string(got) != string(want) {
			t.Fatalf("appendFloat(%v) = %s, json.Marshal = %s", v, got, want)
		}
	})
}

// unencodableServer is a server with a JSON logger and a flight recorder,
// for the unencodable-unit tests.
func unencodableServer(t *testing.T) (*Server, *syncBuffer) {
	t.Helper()
	var logBuf syncBuffer
	logger, err := obs.NewLogger(&logBuf, 0, obs.LogJSON)
	if err != nil {
		t.Fatal(err)
	}
	return New(Options{Workers: 1, Logger: logger}), &logBuf
}

// assertStreamFailed checks that a stream ended with an index-less error
// frame carrying want, after a flight-recorder error event and a "stream
// failed" log line.
func assertStreamFailed(t *testing.T, s *Server, logBuf *syncBuffer, body, want string) {
	t.Helper()
	frames := ndjsonFrames(t, body)
	last := frames[len(frames)-1]
	var msg string
	json.Unmarshal(last["error"], &msg)
	if frameHas(last, "index") || !strings.Contains(msg, want) {
		t.Fatalf("last frame %s, want an index-less error frame containing %q", body[strings.LastIndex(strings.TrimRight(body, "\n"), "\n")+1:], want)
	}
	events := s.recorder.Events()
	if ev := events[len(events)-1]; ev.Outcome != "error" || !strings.Contains(ev.Error, want) {
		t.Errorf("last flight-recorder event %+v, want the stream's error", ev)
	}
	failed := false
	for _, l := range logLines(t, logBuf) {
		if l["msg"] == "stream failed" && strings.Contains(fmt.Sprint(l["error"]), want) {
			failed = true
		}
	}
	if !failed {
		t.Errorf("no \"stream failed\" log line carries %q:\n%s", want, logBuf.String())
	}
}

// TestUnencodableCellEndsStreamWithErrorFrame: a batch replay that meets a
// cached cell it cannot serialize ends with an error frame naming the
// cell, not silently as if the client had left.
func TestUnencodableCellEndsStreamWithErrorFrame(t *testing.T) {
	s, logBuf := unencodableServer(t)
	body := fmt.Sprintf(`{"grid_json": %s}`, tinyGridJSON("nan-grid", "1, 2"))
	do(t, s, "POST", "/v1/batch", body)
	res, _, err := s.resolve(kindGrid, ref{inline: []byte(tinyGridJSON("nan-grid", "1, 2"))})
	if err != nil {
		t.Fatal(err)
	}
	job := res.job
	s.store.Put(res.cellKey(job.Xs[1], job.Ys[0]), newCellUnit(job, []float64{math.NaN()}))

	w := do(t, s, "POST", "/v1/batch", body)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	frames := ndjsonFrames(t, w.Body.String())
	if len(frames) != 3 || !frameHas(frames[0], "grid") || !frameHas(frames[1], "cell") {
		t.Fatalf("frames %s, want the header, cell (0, 0) and an error frame", w.Body)
	}
	assertStreamFailed(t, s, logBuf, w.Body.String(), fmt.Sprintf("cell (0, 1) at x=%g, y=%g: json: unsupported value: NaN", job.Xs[1], job.Ys[0]))
}

// TestUnencodableTickEndsStreamWithErrorFrame: the same for a simulation
// replay that meets a cached tick it cannot serialize.
func TestUnencodableTickEndsStreamWithErrorFrame(t *testing.T) {
	s, logBuf := unencodableServer(t)
	sim := tinySimJSON("nan-sim", 3)
	body := fmt.Sprintf(`{"scenario_json": %s}`, sim)
	do(t, s, "POST", "/v1/simulate", body)
	res, _, err := s.resolve(kindSim, ref{inline: []byte(sim)})
	if err != nil {
		t.Fatal(err)
	}
	val, ok := s.store.Lookup(res.tickKeys[1])
	if !ok {
		t.Fatal("tick 1 is not cached after a full run")
	}
	rec := val.(*tickUnit).rec
	rec.Phi = math.NaN()
	s.store.Put(res.tickKeys[1], newTickUnit(rec))

	w := do(t, s, "POST", "/v1/simulate", body)
	frames := ndjsonFrames(t, w.Body.String())
	if w.Code != http.StatusOK || len(frames) != 3 || !frameHas(frames[0], "sim") || !frameHas(frames[1], "tick") {
		t.Fatalf("status %d, frames %s, want the header, tick 0 and an error frame", w.Code, w.Body)
	}
	assertStreamFailed(t, s, logBuf, w.Body.String(), "serializing tick 1: json: unsupported value: NaN")
}

// TestUnencodableRunResult: a run result that cannot be serialized answers
// /v1/runs with a 500 naming the failure and a list-mode batch with an
// indexed error frame. It stays cached, so it is solved once, not once per
// request; injected into the cache, it is served the same way.
func TestUnencodableRunResult(t *testing.T) {
	const want = `{"error":"serializing response: json: unsupported value: NaN"}`
	nanTables := func() []*sweep.Table {
		tables := stubTables()
		tables[0].Series[0].Y[1] = math.NaN()
		return tables
	}
	s, calls := newStubServer(Options{})
	s.runScenario = func(sc *scenario.Scenario, _ int, _ *obs.Counters) ([]*sweep.Table, error) {
		calls.Add(1)
		if sc.Name == "neutral-baseline" {
			return nanTables(), nil
		}
		return stubTables(), nil
	}
	for i := 0; i < 2; i++ {
		w := do(t, s, "POST", "/v1/runs", `{"scenario": "neutral-baseline"}`)
		if w.Code != http.StatusInternalServerError || w.Body.String() != want {
			t.Fatalf("request %d: %d %s, want 500 %s", i, w.Code, w.Body, want)
		}
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("the unencodable result was solved %d times over two requests, want 1", n)
	}

	w := do(t, s, "POST", "/v1/batch", `{"scenarios": ["archetypes-capacity", "neutral-baseline"]}`)
	frames := ndjsonFrames(t, w.Body.String())
	var msg string
	json.Unmarshal(frames[1]["error"], &msg)
	if len(frames) != 3 || string(frames[1]["index"]) != "1" || msg != "serializing result: json: unsupported value: NaN" {
		t.Fatalf("list batch %s, want entry 0 solved, entry 1 an indexed serializing error, then the done frame", w.Body)
	}
	if string(frames[2]["results"]) != "1" || string(frames[2]["errors"]) != "1" {
		t.Fatalf("done frame %s, want 1 result and 1 error", w.Body)
	}

	// Injected: the cache serves the entry without solving.
	res, _, err := s.resolve(kindRun, ref{name: "monopoly-price-sweep"})
	if err != nil {
		t.Fatal(err)
	}
	s.store.Put(res.key, newRunUnit(&RunResult{Kind: "scenario", Name: "monopoly-price-sweep", Tables: nanTables()}))
	before := calls.Load()
	w = do(t, s, "POST", "/v1/runs", `{"scenario": "monopoly-price-sweep"}`)
	if w.Code != http.StatusInternalServerError || w.Body.String() != want || calls.Load() != before {
		t.Fatalf("injected unencodable run: %d %s after %d solves, want 500 %s and none", w.Code, w.Body, calls.Load()-before, want)
	}
}
