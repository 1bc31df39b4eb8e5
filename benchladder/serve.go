package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/netecon-sim/publicoption/internal/cache"
	"github.com/netecon-sim/publicoption/internal/numeric"
	"github.com/netecon-sim/publicoption/internal/obs"
	"github.com/netecon-sim/publicoption/internal/scenario"
	"github.com/netecon-sim/publicoption/internal/service"
)

type serveSize struct {
	named         []string
	gridCPs       int
	depth, probes int
	queries       int
	simTicks      int
	simCPs        int
	coldCPs       int
	coldPoints    int
	plan          int // requests per window
	audit         int // cold bodies compared with a direct Scenario.Run
	coldSolo      int // cold requests sent alone after each window, for cold_cpu_ms
	cache         int // the server's cache entry bound
}

func serveSizes(tiny bool) serveSize {
	if tiny {
		return serveSize{
			named: []string{"archetypes-capacity"}, gridCPs: 60, depth: 1, probes: 4, queries: 4,
			simTicks: 4, simCPs: 30, coldCPs: 40, coldPoints: 3, plan: 40, audit: 2, coldSolo: 1, cache: 64,
		}
	}
	return serveSize{
		named:   []string{"archetypes-capacity", "neutral-baseline", "monopoly-capacity"},
		gridCPs: 200, depth: 2, probes: 8, queries: 16,
		simTicks: 24, simCPs: 80, coldCPs: 150, coldPoints: 4, plan: 200, audit: 8, coldSolo: 2, cache: 256,
	}
}

const (
	// coldPercent of each plan's requests are cold.
	coldPercent = 10
	// minWindows is the fewest plan windows a pass runs; traced passes
	// compare counts between pairs of windows.
	minWindows = 2
)

// Request classes of the serve-mix plan.
const (
	classCold     = "runs_cold"
	classRuns     = "runs_warm"
	classQuery    = "query"
	classBatch    = "batch_warm"
	classSimulate = "simulate_warm"
)

// warmRequest is one primed request and its reference body.
type warmRequest struct {
	Class string `json:"class"`
	Path  string `json:"path"`
	Body  string `json:"body"`
	ref   []byte // primed body with elapsed_ms and trace removed
}

// planEntry is one slot of the seeded request order: a cold request, or a
// warm one by index into warm.
type planEntry struct {
	Cold bool `json:"cold,omitempty"`
	Warm int  `json:"warm"`
}

// serveBench is the serve-mix workload: a closed loop of nproc keep-alive
// clients against an in-process service.New server on loopback. Each client
// sends its next request only after the previous one completes.
type serveBench struct {
	o    options
	sz   serveSize
	seed uint64

	srv    *http.Server
	served chan error
	url    string
	server *service.Server
	client *http.Client
	tr     atomic.Pointer[tracer] // the traced pass's tracer, read by the handler wrapper

	warm []warmRequest
	plan []planEntry
	cold atomic.Int64 // cold requests generated so far

	audits []coldAudit

	cache0, cache1 cache.Stats    // cache counters around the last pass
	solver         obs.SolveStats // solver counters over the last pass, from /metrics
	directMS       []float64      // direct Scenario.Run times of audited cold scenarios
}

// coldAudit is a cold response kept for comparison with a direct run.
type coldAudit struct {
	sc   *scenario.Scenario
	body []byte
}

func newServeBench(o options) bench { return &serveBench{o: o, sz: serveSizes(o.tiny)} }

// coldScenario returns the k-th cold request's inline scenario: a small
// public-option-sizing sweep over a fresh ensemble, so its content address
// is new and the request is a guaranteed cache miss.
func (b *serveBench) coldScenario(k int64) *scenario.Scenario {
	sc, ok := scenario.Get("public-option-sizing")
	if !ok {
		panic("benchladder: built-in public-option-sizing is missing")
	}
	sc.Name = "bench-cold"
	sc.Sweep.Points = b.sz.coldPoints
	rng := numeric.NewRNG(b.seed ^ uint64(k)*0x9e3779b97f4a7c15)
	if err := sc.ApplyEnsembleOverrides(rng.Uint64()|1, b.sz.coldCPs); err != nil {
		panic(err)
	}
	return sc
}

// inlineGrid is the small grid behind the query and batch requests.
func (b *serveBench) inlineGrid(seed uint64) (*scenario.Scenario, error) {
	sc := sizingScenario(4, 3, 0.2, 0.6)
	sc.Name = "bench-grid"
	sc.Sweep.Grid.Refine = &scenario.RefineSpec{Tolerance: refineTol, MaxDepth: b.sz.depth, Probes: b.sz.probes}
	return sc, sc.ApplyEnsembleOverrides(seed, b.sz.gridCPs)
}

func (b *serveBench) setup() error {
	b.close()
	b.seed = b.o.seed
	rng := numeric.NewRNG(b.o.seed)
	// A cache smaller than the run's working set: cold entries churn
	// through the LRU bound while the hot warm entries stay, so the
	// retained heap reaches a steady state.
	b.server = service.New(service.Options{Workers: b.o.workers, CacheEntries: b.sz.cache})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	b.srv = &http.Server{Handler: http.HandlerFunc(b.handle), ReadHeaderTimeout: 10 * time.Second}
	b.served = make(chan error, 1)
	go func() { b.served <- b.srv.Serve(ln) }()
	b.url = "http://" + ln.Addr().String()
	b.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: b.o.workers, MaxConnsPerHost: b.o.workers, DisableCompression: true,
	}}

	// The warm set: named runs, query points in the inline grid's surrogate,
	// a dense replay of that grid, and a simulate replay.
	b.warm = nil
	for _, name := range b.sz.named {
		b.warm = append(b.warm, warmRequest{Class: classRuns, Path: "/v1/runs", Body: fmt.Sprintf(`{"scenario":%q}`, name)})
	}
	grid, err := b.inlineGrid(rng.Uint64() | 1)
	if err != nil {
		return err
	}
	gridJSON, err := grid.CanonicalJSON()
	if err != nil {
		return err
	}
	job, err := grid.CompileGrid()
	if err != nil {
		return err
	}
	x0, x1 := job.Xs[0], job.Xs[len(job.Xs)-1]
	y0, y1 := job.Ys[0], job.Ys[len(job.Ys)-1]
	for i := 0; i < b.sz.queries; i++ {
		x, y := rng.Uniform(x0, x1), rng.Uniform(y0, y1)
		body := fmt.Sprintf(`{"grid_json":%s,"x":%s,"y":%s}`, gridJSON,
			strconv.FormatFloat(x, 'g', -1, 64), strconv.FormatFloat(y, 'g', -1, 64))
		b.warm = append(b.warm, warmRequest{Class: classQuery, Path: "/v1/query", Body: body})
	}
	b.warm = append(b.warm, warmRequest{Class: classBatch, Path: "/v1/batch", Body: fmt.Sprintf(`{"grid_json":%s}`, gridJSON)})
	sim, ok := scenario.Get("dyn-convergence")
	if !ok {
		return errors.New("built-in dyn-convergence is missing")
	}
	sim.Dynamics.Ticks = b.sz.simTicks
	if err := sim.ApplyEnsembleOverrides(rng.Uint64()|1, b.sz.simCPs); err != nil {
		return err
	}
	simJSON, err := sim.CanonicalJSON()
	if err != nil {
		return err
	}
	b.warm = append(b.warm, warmRequest{Class: classSimulate, Path: "/v1/simulate", Body: fmt.Sprintf(`{"scenario_json":%s}`, simJSON)})

	// Prime: the first request solves, the second is the reference body.
	for i := range b.warm {
		for round := 0; round < 2; round++ {
			body, err := b.do(b.warm[i].Path, b.warm[i].Body, -1)
			if err != nil {
				return fmt.Errorf("priming %s %s: %w", b.warm[i].Class, b.warm[i].Path, err)
			}
			b.warm[i].ref = scrub(body)
		}
	}

	b.plan = b.newPlan(rng)
	b.cold.Store(0)
	return nil
}

// newPlan builds the seeded request order. Its composition is fixed: one
// request in ten is cold, and the warm ones split equally over the four warm
// classes (named runs, queries, batch replays, simulate replays), since there
// is no usage data that would favour one of them. The seed draws which warm
// request of each class fills a slot and the order of all slots.
func (b *serveBench) newPlan(rng *numeric.RNG) []planEntry {
	byClass := make(map[string][]int)
	for i, w := range b.warm {
		byClass[w.Class] = append(byClass[w.Class], i)
	}
	n := b.sz.plan
	cold := n * coldPercent / 100
	warmClasses := []string{classRuns, classQuery, classBatch, classSimulate}
	perClass := (n - cold) / len(warmClasses)
	plan := make([]planEntry, 0, n)
	for i := 0; i < cold; i++ {
		plan = append(plan, planEntry{Cold: true})
	}
	for _, c := range warmClasses {
		idx := byClass[c]
		for i := 0; i < perClass; i++ {
			plan = append(plan, planEntry{Warm: idx[rng.Intn(len(idx))]})
		}
	}
	for runs := byClass[classRuns]; len(plan) < n; {
		plan = append(plan, planEntry{Warm: runs[rng.Intn(len(runs))]})
	}
	for i := len(plan) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		plan[i], plan[j] = plan[j], plan[i]
	}
	return plan
}

func (b *serveBench) inputs() any {
	colds := make([]*scenario.Scenario, 0, 8)
	for k := int64(0); k < 8; k++ {
		colds = append(colds, b.coldScenario(k))
	}
	return map[string]any{"warm": b.warm, "plan": b.plan, "cold_first": colds}
}

func (b *serveBench) close() {
	if b.srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := b.srv.Shutdown(ctx); err != nil {
		b.srv.Close()
	}
	<-b.served
	b.client.CloseIdleConnections()
	b.srv = nil
}

// handle wraps the service's handler: on traced passes it records the
// handler's own span under the client span named in X-Bench-Span.
func (b *serveBench) handle(w http.ResponseWriter, r *http.Request) {
	tr := b.tr.Load()
	parent := r.Header.Get("X-Bench-Span")
	if tr == nil || parent == "" {
		b.server.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	b.server.ServeHTTP(w, r)
	if p, err := strconv.Atoi(parent); err == nil {
		tr.add("service.handler", start, time.Now(), int32(p), int32(p))
	}
}

// do POSTs one request and returns its body, failing on a non-2xx status;
// span >= 0 tags it for the handler wrapper.
func (b *serveBench) do(path, body string, span int32) ([]byte, error) {
	req, err := http.NewRequest(http.MethodPost, b.url+path, strings.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if span >= 0 {
		req.Header.Set("X-Bench-Span", strconv.Itoa(int(span)))
	}
	resp, err := b.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return out, fmt.Errorf("HTTP %d: %.200s", resp.StatusCode, out)
	}
	return out, nil
}

// scrub removes the per-request fields (elapsed_ms and trace) from a JSON
// or NDJSON body, so warm bodies compare byte for byte.
func scrub(body []byte) []byte {
	out := make([]byte, 0, len(body))
	for i := 0; i < len(body); {
		if k := matchField(body[i:]); k > 0 {
			j := i + k
			if j < len(body) && body[j] == '"' {
				j++
				for j < len(body) && body[j] != '"' {
					j++
				}
				j++
			} else {
				for j < len(body) && body[j] != ',' && body[j] != '}' {
					j++
				}
			}
			// Drop a separating comma on one side of the removed field.
			if j < len(body) && body[j] == ',' {
				j++
			} else if n := len(out); n > 0 && out[n-1] == ',' {
				out = out[:n-1]
			}
			i = j
			continue
		}
		out = append(out, body[i])
		i++
	}
	return out
}

// matchField returns the length of an `"elapsed_ms":` or `"trace":` key at
// the start of b, or 0.
func matchField(b []byte) int {
	for _, key := range []string{`"elapsed_ms":`, `"trace":`} {
		if bytes.HasPrefix(b, []byte(key)) {
			return len(key)
		}
	}
	return 0
}

// request is one prepared request. Requests are built before the window
// that sends them and their responses are checked after it, so the window's
// CPU and allocation figures cover only the client round trip and the
// server.
type request struct {
	class, path, body string
	warm              int                // index into warm, for warm requests
	cold              int64              // the cold request's number, for cold ones
	sc                *scenario.Scenario // kept for audited cold requests only
}

// reqResult is one client request's outcome.
type reqResult struct {
	req     *request
	latency time.Duration
	body    []byte
	err     error
}

// prepare builds the request for one plan entry. Cold requests are numbered
// from b.cold; the first sz.audit of a pass (those numbered from base on)
// keep their scenario for the audit.
func (b *serveBench) prepare(e planEntry, base int64) (request, error) {
	if !e.Cold {
		w := b.warm[e.Warm]
		return request{class: w.Class, path: w.Path, body: w.Body, warm: e.Warm}, nil
	}
	k := b.cold.Add(1) - 1
	sc := b.coldScenario(k)
	js, err := sc.CanonicalJSON()
	if err != nil {
		return request{}, fmt.Errorf("cold request %d: %v", k, err)
	}
	r := request{class: classCold, path: "/v1/runs", body: `{"scenario_json":` + string(js) + `}`, cold: k}
	if k-base < int64(b.sz.audit) {
		r.sc = sc
	}
	return r, nil
}

func (b *serveBench) measure(deadline time.Time, tr *tracer, s *sample) {
	b.tr.Store(tr)
	defer b.tr.Store(nil)
	b.cache0 = b.server.CacheStats()
	before, _ := b.scrapeSolver()
	rs := newRuntimeSampler()
	base := b.cold.Load()
	var warm, cold []float64
	var requests, total int
	for window := 0; window < minWindows || time.Now().Before(deadline); window++ {
		var reqs []request
		s.offLoop(rs, func() {
			reqs = make([]request, 0, len(b.plan))
			for _, e := range b.plan {
				r, err := b.prepare(e, base)
				if err != nil {
					s.check(false, "%v", err)
					continue
				}
				reqs = append(reqs, r)
			}
		})
		c0 := b.server.CacheStats()
		var st0 obs.SolveStats
		if tr != nil {
			st0, _ = b.scrapeSolver()
		}
		cpu0, t0 := cpuTime(), time.Now()
		got := b.window(reqs, tr)
		wall := time.Since(t0)
		s.unitCPU = append(s.unitCPU, cpuSince(cpu0)/float64(len(got)))
		s.unitRate = append(s.unitRate, ratio(float64(len(got)), wall.Seconds()))
		s.noteHeap(rs)
		if tr != nil {
			// Windows replay the same plan, so their counts pair up.
			c1 := b.server.CacheStats()
			st1, _ := b.scrapeSolver()
			vals := kernelCounts(st1.Since(st0))
			vals["cache.coalesced"] = float64(c1.Coalesced - c0.Coalesced)
			vals["cache.evictions"] = float64(c1.Evictions - c0.Evictions)
			vals["cache.entries"] = float64(c1.Entries - c0.Entries)
			s.count(vals)
		}
		s.offLoop(rs, func() {
			for i := range got {
				r := &got[i]
				total += len(r.body)
				b.check(r, s)
				if r.req.class == classCold {
					cold = append(cold, ms(r.latency))
				} else {
					warm = append(warm, ms(r.latency))
				}
			}
			requests += len(got)
			b.soloColds(s, b.sz.coldSolo, base)
		})
	}
	b.cache1 = b.server.CacheStats()
	after, _ := b.scrapeSolver()
	b.solver = after.Since(before)

	s.unitMS = append(s.unitMS, warm...)
	s.coldMS = append(s.coldMS, cold...)
	s.units = float64(requests)
	s.extras["warm_p99_ms"] = quantile(warm, 0.99)
	s.extras["cold_p90_ms"] = quantile(cold, 0.9)
	s.extras["warm_samples"] = float64(len(warm))
	s.extras["cold_samples"] = float64(len(cold))
	s.extras["resp_kb"] = ratio(float64(total)/1024, float64(requests))
}

// window sends the prepared requests through nproc closed-loop clients and
// returns their outcomes, in request order.
func (b *serveBench) window(reqs []request, tr *tracer) []reqResult {
	out := make([]reqResult, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < b.o.workers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(len(reqs)) {
					break
				}
				out[i] = b.send(&reqs[i], tr)
			}
		}()
	}
	wg.Wait()
	return out
}

// send makes one request and keeps its body for the checks.
func (b *serveBench) send(r *request, tr *tracer) reqResult {
	sid := tr.begin("client."+r.class, -1, -1)
	t := time.Now()
	got, err := b.do(r.path, r.body, sid)
	lat := time.Since(t)
	tr.end(sid)
	return reqResult{req: r, latency: lat, body: got, err: err}
}

// check checks one response: a 2xx status, a miss for a cold request (whose
// body is kept for the audit if its request was marked for it), and for a
// warm request the primed body once elapsed_ms and trace are removed. It
// drops the body afterwards.
func (b *serveBench) check(r *reqResult, s *sample) {
	q := r.req
	defer func() { r.body = nil }()
	switch {
	case r.err != nil:
		s.check(false, "%s: %v", q.class, r.err)
	case q.class == classCold:
		ok := bytes.Contains(r.body, []byte(`"cache":"miss"`))
		s.check(ok, "cold request %d was not a cache miss", q.cold)
		if ok && q.sc != nil {
			b.audits = append(b.audits, coldAudit{sc: q.sc, body: r.body})
		}
	default:
		s.check(bytes.Equal(scrub(r.body), b.warm[q.warm].ref), "%s %s: warm body differs from its primed body", q.class, q.path)
	}
}

// scrapeSolver reads the pubopt_solver_* counters from /metrics.
func (b *serveBench) scrapeSolver() (obs.SolveStats, error) {
	resp, err := b.client.Get(b.url + "/metrics")
	if err != nil {
		return obs.SolveStats{}, err
	}
	defer resp.Body.Close()
	var st obs.SolveStats
	fields := map[string]*uint64{
		"pubopt_solver_solves_total":        &st.Solves,
		"pubopt_solver_evals_total":         &st.Evals,
		"pubopt_solver_warm_brackets_total": &st.WarmBrackets,
		"pubopt_solver_cold_brackets_total": &st.ColdBrackets,
		"pubopt_solver_bisections_total":    &st.Bisections,
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 {
			continue
		}
		if p, ok := fields[f[0]]; ok {
			v, err := strconv.ParseFloat(f[1], 64)
			if err == nil {
				*p = uint64(v)
			}
		}
	}
	return st, sc.Err()
}

// wireTables is the part of a run response the cold audit compares.
type wireTables struct {
	Tables []struct {
		Series []struct {
			Name string    `json:"name"`
			X    []float64 `json:"x"`
			Y    []float64 `json:"y"`
		} `json:"series"`
	} `json:"tables"`
}

// verify compares sampled cold bodies with a direct Scenario.Run of the same
// scenario, at the server's per-solve parallelism (GOMAXPROCS / pool = 1).
func (b *serveBench) verify(s *sample) {
	audits := b.audits
	b.audits = nil
	for _, a := range audits {
		t := time.Now()
		tables, err := a.sc.Run(scenario.RunOptions{Workers: 1})
		b.directMS = append(b.directMS, ms(time.Since(t)))
		var got wireTables
		if err == nil {
			err = json.Unmarshal(a.body, &got)
		}
		ok := err == nil && len(got.Tables) == len(tables)
		for ti := 0; ok && ti < len(tables); ti++ {
			ser := got.Tables[ti].Series
			ok = len(ser) == len(tables[ti].Series)
			for si := 0; ok && si < len(ser); si++ {
				want := tables[ti].Series[si]
				ok = ser[si].Name == want.Name && len(ser[si].Y) == len(want.Y)
				for i := 0; ok && i < len(want.Y); i++ {
					ok = numeric.AlmostEqual(ser[si].X[i], want.X[i], 1e-12) && numeric.AlmostEqual(ser[si].Y[i], want.Y[i], 1e-9)
				}
			}
		}
		s.check(ok, "cold body differs from a direct Scenario.Run (err %v)", err)
	}
}

// soloColds sends n cold requests one at a time, so the process CPU each
// costs is its own; each is built before and checked after its CPU window.
// The loop sends them after every window.
func (b *serveBench) soloColds(s *sample, n int, base int64) {
	for i := 0; i < n; i++ {
		req, err := b.prepare(planEntry{Cold: true}, base)
		if err != nil {
			s.check(false, "isolated %v", err)
			continue
		}
		c0 := cpuTime()
		r := b.send(&req, nil)
		s.coldCPU = append(s.coldCPU, cpuSince(c0))
		b.check(&r, s)
	}
}

func (b *serveBench) layers(spans []span, s *sample) map[string]float64 {
	pop, err := b.coldScenario(0).Population.Materialize()
	if err != nil {
		return map[string]float64{}
	}
	out := rungsTwice(pop, b.o.tiny, s)
	for k, v := range kernelCounts(b.solver) {
		out[k] = v
	}
	handler := make(map[int32]span)
	for _, sp := range spans {
		if sp.Name == "service.handler" {
			handler[sp.Parent] = sp
		}
	}
	byClass := make(map[string][]float64)
	var net []float64
	for i, sp := range spans {
		if !strings.HasPrefix(sp.Name, "client.") {
			continue
		}
		h, ok := handler[int32(i)]
		if !ok {
			continue
		}
		class := strings.TrimPrefix(sp.Name, "client.")
		byClass[class] = append(byClass[class], ms(h.dur()))
		net = append(net, ms(sp.dur()-h.dur()))
	}
	for _, c := range []string{classRuns, classCold, classQuery, classBatch, classSimulate} {
		name := "service." + c + "_ms"
		if c == classQuery {
			name = "service.query_ms"
		}
		out[name] = median(byClass[c])
	}
	out["service.net_ms"] = median(net)
	out["service.cold_over_solve"] = ratio(out["service.runs_cold_ms"], median(b.directMS))
	out["service.resp_kb"] = s.extras["resp_kb"]
	out["service.warm_p99_ms"] = quantile(s.unitMS, 0.99)
	out["service.cold_p90_ms"] = quantile(s.coldMS, 0.9)
	hits := float64(b.cache1.Hits - b.cache0.Hits)
	lookups := hits + float64(b.cache1.Misses-b.cache0.Misses) + float64(b.cache1.Coalesced-b.cache0.Coalesced)
	out["cache.hit_frac"] = ratio(hits, lookups)
	out["cache.coalesced"] = float64(b.cache1.Coalesced - b.cache0.Coalesced)
	out["cache.evictions"] = float64(b.cache1.Evictions - b.cache0.Evictions)
	out["cache.entries"] = float64(b.cache1.Entries)
	return out
}
