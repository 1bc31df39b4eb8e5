package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"github.com/netecon-sim/publicoption/internal/scenario"
)

// warmReplay is one inline request that a client replays: the serving
// shape of a dashboard polling a grid, its surrogate or a trajectory.
type warmReplay struct {
	name, path, body string
}

// warmReplays builds the replays: three inline ones — a 24-tick simulation
// over 80 CPs, a dense 4×3 sizing grid over 200 CPs and a point query on
// that grid's refinement surrogate — and two named ones, a 1-D run and a
// list-mode batch of two 1-D runs. Between them they serve every kind of
// spliced frame (units.go).
func warmReplays(t testing.TB) []warmReplay {
	t.Helper()
	sim, ok := scenario.Get("dyn-convergence")
	if !ok {
		t.Fatal("missing built-in dyn-convergence")
	}
	sim.Dynamics.Ticks = 24
	if err := sim.ApplyEnsembleOverrides(11, 80); err != nil {
		t.Fatal(err)
	}
	grid, ok := scenario.Get("po-sizing-gamma-nu")
	if !ok {
		t.Fatal("missing built-in po-sizing-gamma-nu")
	}
	grid.Name = "warm-grid"
	grid.Sweep.Points, grid.Sweep.Values = 4, nil
	g := grid.Sweep.Grid
	g.Values, g.Lo, g.Hi, g.Points = nil, 0.2, 0.6, 3
	g.Refine = &scenario.RefineSpec{Tolerance: 0.01, MaxDepth: 2, Probes: 8}
	if err := grid.ApplyEnsembleOverrides(12, 200); err != nil {
		t.Fatal(err)
	}
	simJSON, err := sim.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	gridJSON, err := grid.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	job, err := grid.CompileGrid()
	if err != nil {
		t.Fatal(err)
	}
	x := (job.Xs[0] + job.Xs[len(job.Xs)-1]) / 2
	y := (job.Ys[0] + job.Ys[len(job.Ys)-1]) / 2
	return []warmReplay{
		{"simulate", "/v1/simulate", fmt.Sprintf(`{"scenario_json":%s}`, simJSON)},
		{"batch", "/v1/batch", fmt.Sprintf(`{"grid_json":%s}`, gridJSON)},
		{"query", "/v1/query", fmt.Sprintf(`{"grid_json":%s,"x":%v,"y":%v}`, gridJSON, x, y)},
		{"runs", "/v1/runs", `{"scenario":"archetypes-capacity"}`},
		{"list", "/v1/batch", `{"scenarios":["archetypes-capacity","neutral-baseline"]}`},
	}
}

// serveReplay sends one replay straight to the handler and returns the
// recorder.
func serveReplay(t testing.TB, s *Server, r warmReplay) *httptest.ResponseRecorder {
	t.Helper()
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest("POST", r.path, strings.NewReader(r.body)))
	if w.Code != http.StatusOK {
		t.Fatalf("%s: status %d: %.300s", r.name, w.Code, w.Body)
	}
	return w
}

// primedServer returns a server that has answered every replay once.
func primedServer(t testing.TB, replays []warmReplay) *Server {
	t.Helper()
	s := New(Options{Workers: 1})
	for _, r := range replays {
		serveReplay(t, s, r)
	}
	return s
}

// warmReplayBudget is the heap budget of one warm request through
// Server.ServeHTTP, from the request's construction to its recorded body.
// Measured: 55,750 B per simulate, 17,672 B per batch, 6,320 B per query,
// 4,152 B per named run and 8,544 B per two-entry list, against 81,814,
// 25,848, 6,320, 4,264 and 8,816 B when every cached unit was marshalled
// again on every replay, and 116,932, 50,992 and 30,688 B for the first
// three when every request re-parsed, hashed and compiled its definition.
// Most of what is left is the recorded body. The budgets sit about 20%
// above the measurements: a regression to re-encoding cached units, to
// per-request compiling or to per-tick hashing exceeds them.
var warmReplayBudget = map[string]uint64{
	"simulate": 67_000,
	"batch":    21_200,
	"query":    7_600,
	"runs":     5_000,
	"list":     10_300,
}

// TestWarmReplayBytes bounds the bytes a warm replay allocates: a repeated
// definition resolves from the inline memo, its keys are precomputed, its
// units are served from their stored encodings, and nothing but the
// response is built per request.
func TestWarmReplayBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on its own")
	}
	replays := warmReplays(t)
	s := primedServer(t, replays)
	const n = 20
	for _, r := range replays {
		reqs := make([]*http.Request, n)
		recs := make([]*httptest.ResponseRecorder, n)
		for i := range reqs {
			reqs[i] = httptest.NewRequest("POST", r.path, strings.NewReader(r.body))
			recs[i] = httptest.NewRecorder()
		}
		serveReplay(t, s, r)
		prev := runtime.GOMAXPROCS(1) // as testing.AllocsPerRun does
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := range reqs {
			s.ServeHTTP(recs[i], reqs[i])
		}
		runtime.ReadMemStats(&after)
		runtime.GOMAXPROCS(prev)
		for _, w := range recs {
			if w.Code != http.StatusOK || bytes.Contains(w.Body.Bytes(), []byte(`"cache":"miss"`)) {
				t.Fatalf("%s: replay was not warm: status %d: %.300s", r.name, w.Code, w.Body)
			}
		}
		per := (after.TotalAlloc - before.TotalAlloc) / n
		t.Logf("%s: %d B per warm request", r.name, per)
		if per > warmReplayBudget[r.name] {
			t.Errorf("%s: %d B per warm request, budget %d", r.name, per, warmReplayBudget[r.name])
		}
	}
}

// BenchmarkWarmReplay times the warm replays of TestWarmReplayBytes.
func BenchmarkWarmReplay(b *testing.B) {
	replays := warmReplays(b)
	s := primedServer(b, replays)
	for _, r := range replays {
		b.Run(r.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				serveReplay(b, s, r)
			}
		})
	}
}

// flushWriter is a ResponseWriter that records, at every Flush, how many
// newline-terminated frames had been written.
type flushWriter struct {
	header  http.Header
	buf     bytes.Buffer
	code    int
	flushed []int
}

func (w *flushWriter) Header() http.Header {
	if w.header == nil {
		w.header = make(http.Header)
	}
	return w.header
}

func (w *flushWriter) WriteHeader(code int)        { w.code = code }
func (w *flushWriter) Write(p []byte) (int, error) { return w.buf.Write(p) }
func (w *flushWriter) Flush()                      { w.flushed = append(w.flushed, w.frames()) }
func (w *flushWriter) frames() int                 { return bytes.Count(w.buf.Bytes(), []byte("\n")) }

func serveFlushed(t *testing.T, s *Server, path, body string) *flushWriter {
	t.Helper()
	w := &flushWriter{}
	s.ServeHTTP(w, httptest.NewRequest("POST", path, strings.NewReader(body)))
	if w.code != http.StatusOK {
		t.Fatalf("%s: status %d: %.300s", path, w.code, w.buf.String())
	}
	return w
}

// TestWarmReplayFlushesOnce: a fully cached stream writes its header and
// cached frames unflushed and flushes once, with its terminal frame.
func TestWarmReplayFlushesOnce(t *testing.T) {
	s := New(Options{Workers: 1})
	sim := fmt.Sprintf(`{"scenario_json": %s}`, tinySimJSON("flush-sim", 5))
	grid := fmt.Sprintf(`{"grid_json": %s}`, tinyGridJSON("flush-grid", "1, 2"))
	for _, c := range []struct{ path, body string }{{"/v1/simulate", sim}, {"/v1/batch", grid}} {
		cold := serveFlushed(t, s, c.path, c.body)
		warm := serveFlushed(t, s, c.path, c.body)
		if n := warm.frames(); len(warm.flushed) != 1 || warm.flushed[0] != n {
			t.Errorf("%s warm replay flushed at frames %v of %d, want once, at the end", c.path, warm.flushed, n)
		}
		// The cold run flushes each solved frame on its own: the header
		// before the first solve, every solved unit, the terminal frame.
		if len(cold.flushed) < 3 || cold.flushed[0] != 1 {
			t.Errorf("%s cold run flushed at frames %v, want the header alone first and then each solved unit", c.path, cold.flushed)
		}
	}
}

// TestPartlyCachedSimulateFlushesPrefixFirst: a replay whose cached prefix
// ends early flushes the header and the prefix together before it waits
// for a pool slot, then flushes every solved tick and the terminal frame.
func TestPartlyCachedSimulateFlushesPrefixFirst(t *testing.T) {
	s := New(Options{Workers: 1})
	body := fmt.Sprintf(`{"scenario_json": %s}`, tinySimJSON("flush-resume", 8))
	// The client leaves after the header and two ticks, which banks them.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cw := &cancelingWriter{after: 3, cancel: cancel}
	s.ServeHTTP(cw, httptest.NewRequest("POST", "/v1/simulate", strings.NewReader(body)).WithContext(ctx))

	w := serveFlushed(t, s, "/v1/simulate", body)
	done := simDone(t, w.buf.String())
	if done.CacheHits == 0 || done.Solved == 0 || done.CacheHits+done.Solved != 8 {
		t.Fatalf("replay served %d cached and %d solved ticks, want a cached prefix and a solved rest", done.CacheHits, done.Solved)
	}
	want := []int{1 + done.CacheHits}
	for k := 1; k <= done.Solved+1; k++ {
		want = append(want, 1+done.CacheHits+k)
	}
	if fmt.Sprint(w.flushed) != fmt.Sprint(want) {
		t.Fatalf("flushed at frames %v, want %v: the header and cached prefix together, then each solved tick and the done frame", w.flushed, want)
	}
}

// TestInlineMemoKeepsResolveSemantics: a memoized definition answers
// exactly what a fresh resolution would, at every endpoint.
func TestInlineMemoKeepsResolveSemantics(t *testing.T) {
	simJSON := tinySimJSON("memo-sim", 2)
	gridJSON := tinyGridJSON("memo-grid", "1, 2")
	s := New(Options{Workers: 1})
	do(t, s, "POST", "/v1/simulate", fmt.Sprintf(`{"scenario_json": %s}`, simJSON))
	do(t, s, "POST", "/v1/batch", fmt.Sprintf(`{"grid_json": %s}`, gridJSON))
	if s.inline.lru.Len() != 2 {
		t.Fatalf("memo holds %d definitions after a simulate and a batch, want 2", s.inline.lru.Len())
	}
	// A list entry is a 1-D reference: its error travels in a frame of a
	// 200 stream.
	wrong := []struct {
		path, body string
		status     int
	}{
		{"/v1/batch", fmt.Sprintf(`{"grid_json": %s}`, simJSON), http.StatusBadRequest},
		{"/v1/query", fmt.Sprintf(`{"grid_json": %s, "x": 1, "y": 1}`, simJSON), http.StatusBadRequest},
		{"/v1/runs", fmt.Sprintf(`{"scenario_json": %s}`, simJSON), http.StatusBadRequest},
		{"/v1/simulate", fmt.Sprintf(`{"scenario_json": %s}`, gridJSON), http.StatusBadRequest},
		{"/v1/runs", fmt.Sprintf(`{"scenario_json": %s}`, gridJSON), http.StatusBadRequest},
		{"/v1/batch", fmt.Sprintf(`{"scenarios": [%s]}`, simJSON), http.StatusOK},
	}
	for _, c := range wrong {
		got := do(t, s, "POST", c.path, c.body)
		want := do(t, New(Options{Workers: 1}), "POST", c.path, c.body)
		if got.Code != c.status || want.Code != c.status ||
			volatileField.ReplaceAllString(got.Body.String(), "") != volatileField.ReplaceAllString(want.Body.String(), "") {
			t.Errorf("%s with a memoized definition: %d %s, a fresh server: %d %s, want status %d", c.path, got.Code, got.Body, want.Code, want.Body, c.status)
		}
	}
	if got := do(t, s, "POST", "/v1/batch", fmt.Sprintf(`{"grid_json": %s}`, simJSON)).Body.String(); !strings.Contains(got, "stream it via POST /v1/simulate") {
		t.Errorf("a simulation sent to /v1/batch: %s, want the pointer to /v1/simulate", got)
	}

	// An invalid definition gets its 400 every time and is never stored,
	// nor is a valid one first sent to an endpoint of another kind.
	invalid := `{"grid_json": {"name": "bad name!"}}`
	first := do(t, s, "POST", "/v1/batch", invalid)
	again := do(t, s, "POST", "/v1/batch", invalid)
	if first.Code != http.StatusBadRequest || again.Code != first.Code || again.Body.String() != first.Body.String() {
		t.Errorf("invalid definition: %d %s, then %d %s; want the same 400 twice", first.Code, first.Body, again.Code, again.Body)
	}
	other := tinySimJSON("memo-sim-elsewhere", 2)
	do(t, s, "POST", "/v1/batch", fmt.Sprintf(`{"grid_json": %s}`, other))
	if s.inline.lru.Len() != 2 {
		t.Errorf("memo holds %d definitions, want still 2: failed resolutions are not stored", s.inline.lru.Len())
	}
	if s.inline.get(sha256.Sum256([]byte(other))) != nil {
		t.Error("a simulation rejected by /v1/batch was memoized")
	}
}

// TestInlineMemoBounds: the memo holds at most memoBodies definitions and
// memoWeight in total, evicting the least recently used, and never stores
// a definition heavier than memoWeight on its own.
func TestInlineMemoBounds(t *testing.T) {
	s := New(Options{})
	resolveSim := func(body string) *resolved {
		t.Helper()
		res, code, err := s.resolve(kindSim, ref{inline: []byte(body)})
		if err != nil {
			t.Fatalf("resolving: %d %v", code, err)
		}
		return res
	}
	hot := tinySimJSON("memo-hot", 3)
	resolveSim(hot)
	for i := 0; i < memoBodies+8; i++ {
		resolveSim(tinySimJSON(fmt.Sprintf("memo-%d", i), 3))
		resolveSim(hot) // kept recent, so never the one evicted
	}
	if n := s.inline.lru.Len(); n != memoBodies || len(s.inline.byHash) != memoBodies {
		t.Fatalf("memo holds %d definitions (%d indexed), bound %d", n, len(s.inline.byHash), memoBodies)
	}
	if s.inline.get(sha256.Sum256([]byte(hot))) == nil {
		t.Error("the most recently used definition was evicted")
	}
	if s.inline.get(sha256.Sum256([]byte(tinySimJSON("memo-0", 3)))) != nil {
		t.Error("the least recently used definition is still memoized")
	}
	if a, b := resolveSim(hot), resolveSim(hot); a != b {
		t.Error("a memoized definition resolved to two different compiled scenarios")
	}

	// Weight: a definition over the bound on its own is resolved per
	// request; two that fit alone but not together evict each other.
	heavy := tinySimJSON("memo-heavy", memoWeight+1)
	if a, b := resolveSim(heavy), resolveSim(heavy); a == b {
		t.Error("a definition heavier than the memo bound was memoized")
	}
	half := memoWeight/2 + 1
	resolveSim(tinySimJSON("memo-half-a", half))
	resolveSim(tinySimJSON("memo-half-b", half))
	if s.inline.weight > memoWeight {
		t.Errorf("memo weight %d over its bound %d", s.inline.weight, memoWeight)
	}
	if s.inline.get(sha256.Sum256([]byte(tinySimJSON("memo-half-a", half)))) != nil {
		t.Error("two definitions over the weight bound together are both memoized")
	}
	var sum int
	for el := s.inline.lru.Front(); el != nil; el = el.Next() {
		sum += el.Value.(*memoEntry).weight
	}
	if sum != s.inline.weight {
		t.Errorf("memo weight %d, entries sum to %d", s.inline.weight, sum)
	}
}

// TestInlineMemoConcurrentResolves: concurrent first resolutions of one
// body agree, the memo keeps one entry for it, and concurrent fallback
// solves on its worker pool each get a fresh worker's values.
func TestInlineMemoConcurrentResolves(t *testing.T) {
	s := New(Options{})
	body := []byte(tinyGridJSON("memo-race", "1, 2"))
	ctx := context.Background()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, code, err := s.resolve(kindGrid, ref{inline: body})
			if err != nil {
				t.Errorf("resolve: %d %v", code, err)
				return
			}
			x, y := 0.2+0.05*float64(i), 1.5
			got, _, err := s.solvePoint(ctx, res, x, y)
			if err != nil {
				t.Errorf("solvePoint: %v", err)
				return
			}
			if want := res.job.NewWorker().SolveAt(x, y); math.Float64bits(got["phi"]) != math.Float64bits(want["phi"]) {
				t.Errorf("point (%g, %g): pooled worker phi %v, fresh worker %v", x, y, got["phi"], want["phi"])
			}
		}()
	}
	wg.Wait()
	if n := s.inline.lru.Len(); n != 1 {
		t.Fatalf("memo holds %d entries for one body, want 1", n)
	}
}

// budgetFallbackBytes bounds a /v1/query fallback miss on a warm pooled
// worker: measured 1,638 B (the cell, its cache entry and its event),
// against about 445 KiB on a fresh 1000-CP worker.
const budgetFallbackBytes = 8 << 10

// TestQueryFallbackReusesWorkers: the built-in rebate grid's surrogate
// misses its tolerance, so its queries fall back to point solves. A
// fallback solved on a pooled worker equals a fresh worker's cell bit for
// bit, and a warm miss allocates no per-CP buffer.
func TestQueryFallbackReusesWorkers(t *testing.T) {
	s := New(Options{Workers: 1})
	res, code, err := s.resolve(kindGrid, ref{name: "po-rebate-sigma-nu"})
	if err != nil {
		t.Fatalf("resolve: %d %v", code, err)
	}
	ctx := httptest.NewRequest("GET", "/", nil).Context()
	points := [][2]float64{{0.5, 100}, {0.3, 80}, {0.71, 120}, {0.12, 95}, {0.9, 60}}
	for i, p := range points {
		got, status, err := s.solvePoint(ctx, res, p[0], p[1])
		if err != nil || status.String() != "miss" {
			t.Fatalf("point %v: %v, status %s", p, err, status)
		}
		want := res.job.NewWorker().SolveAt(p[0], p[1])
		for layer, v := range want {
			if math.Float64bits(got[layer]) != math.Float64bits(v) {
				t.Fatalf("point %d %v layer %s: pooled worker %v, fresh worker %v", i, p, layer, got[layer], v)
			}
		}
	}
	if raceEnabled {
		return // race instrumentation allocates, and sync.Pool drops Puts at random
	}
	// Warm misses: new points on the grown pooled worker. A sync.Pool
	// drops its workers when GOMAXPROCS changes, so one miss regrows a
	// worker before the measured ones.
	prev := runtime.GOMAXPROCS(1)
	misses := [][2]float64{{0.2, 75}, {0.45, 90}, {0.55, 110}, {0.25, 70}, {0.8, 130}}
	var before, after runtime.MemStats
	for i, p := range misses {
		if i == 1 {
			runtime.ReadMemStats(&before)
		}
		if _, status, err := s.solvePoint(ctx, res, p[0], p[1]); err != nil || status.String() != "miss" {
			t.Fatalf("point %v: %v, status %s", p, err, status)
		}
	}
	runtime.ReadMemStats(&after)
	runtime.GOMAXPROCS(prev)
	per := (after.TotalAlloc - before.TotalAlloc) / uint64(len(misses)-1)
	t.Logf("%d B per warm fallback miss", per)
	if per > budgetFallbackBytes {
		t.Errorf("%d B per warm fallback miss, budget %d", per, budgetFallbackBytes)
	}
}
