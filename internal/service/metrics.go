package service

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"github.com/netecon-sim/publicoption/internal/cache"
	"github.com/netecon-sim/publicoption/internal/obs"
)

// solveBuckets are the request-latency histogram bounds in seconds. The
// low end resolves warm cache hits (tens of microseconds); the high end
// cold full-size figure solves.
var solveBuckets = []float64{1e-5, 1e-4, 0.001, 0.005, 0.025, 0.1, 0.25, 1, 2.5, 10}

// frameBuckets are the batch NDJSON frame write+flush latency bounds in
// seconds: a frame is one JSON marshal plus one write, flushed unless the
// frame was served from the cache, so the histogram is dominated by client
// backpressure, not solving.
var frameBuckets = []float64{1e-5, 1e-4, 1e-3, 0.01, 0.1, 1}

// solveOutcomes orders the outcome label values of the solve-duration
// histogram. Every outcome is pre-registered so all series appear from the
// first scrape, making absence-vs-zero unambiguous.
var solveOutcomes = []string{"hit", "miss", "coalesced", "error"}

// querySources pre-registers the source label values of pubopt_query_total:
// "surrogate" for answers served by the verified interpolating surrogate,
// "solve" for fallback kernel solves when the error bound does not hold.
var querySources = []string{"surrogate", "solve"}

// histogram is one fixed-bucket Prometheus histogram. Not self-locking:
// the owning metrics mutex guards it.
type histogram struct {
	buckets []float64 // upper bounds, ascending; +Inf is implicit
	counts  []uint64  // len(buckets)+1, last = +Inf overflow
	sum     float64
	total   uint64
}

func newHistogram(buckets []float64) *histogram {
	return &histogram{buckets: buckets, counts: make([]uint64, len(buckets)+1)}
}

func (h *histogram) observe(v float64) {
	h.counts[sort.SearchFloat64s(h.buckets, v)]++
	h.sum += v
	h.total++
}

func (h *histogram) clone() *histogram {
	return &histogram{
		buckets: h.buckets,
		counts:  append([]uint64(nil), h.counts...),
		sum:     h.sum,
		total:   h.total,
	}
}

// writeTo renders the histogram's series, appending labels (e.g.
// `outcome="hit"`) to every line's label set.
func (h *histogram) writeTo(w *strings.Builder, name, labels string) {
	sep := ""
	if labels != "" {
		sep = ","
	}
	var cum uint64
	for i, le := range h.buckets {
		cum += h.counts[i]
		fmt.Fprintf(w, "%s_bucket{%s%sle=\"%g\"} %d\n", name, labels, sep, le, cum)
	}
	cum += h.counts[len(h.buckets)]
	fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, cum)
	if labels != "" {
		fmt.Fprintf(w, "%s_sum{%s} %g\n%s_count{%s} %d\n", name, labels, h.sum, name, labels, cum)
	} else {
		fmt.Fprintf(w, "%s_sum %g\n%s_count %d\n", name, h.sum, name, cum)
	}
}

// metrics is a minimal dependency-free registry rendering the Prometheus
// text exposition format. It tracks what the service needs: request counts
// by route and status code, request-level solve latency split by cache
// outcome, batch frame write latency, and the number of solves in flight.
// Cache counters are read live from the store and solver-kernel counters
// from the server's obs.Counters sink at render time.
type metrics struct {
	mu       sync.Mutex
	requests map[string]map[int]uint64 // route pattern -> status code -> count
	solve    map[string]*histogram     // cache outcome -> request latency
	frames   *histogram                // batch NDJSON frame write+flush latency
	inFlight int64                     // solves currently executing
	simTicks uint64                    // dynamics ticks solved by /v1/simulate
	queries  map[string]uint64         // /v1/query answers by source
}

func newMetrics() *metrics {
	m := &metrics{
		requests: make(map[string]map[int]uint64),
		solve:    make(map[string]*histogram, len(solveOutcomes)),
		frames:   newHistogram(frameBuckets),
		queries:  make(map[string]uint64, len(querySources)),
	}
	for _, o := range solveOutcomes {
		m.solve[o] = newHistogram(solveBuckets)
	}
	for _, src := range querySources {
		m.queries[src] = 0
	}
	return m
}

func (m *metrics) observeRequest(route string, code int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	byCode := m.requests[route]
	if byCode == nil {
		byCode = make(map[int]uint64)
		m.requests[route] = byCode
	}
	byCode[code]++
}

// observeSolve records one run request's latency under its cache outcome
// ("hit", "miss", "coalesced" or "error").
func (m *metrics) observeSolve(outcome string, seconds float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	h := m.solve[outcome]
	if h == nil {
		h = newHistogram(solveBuckets)
		m.solve[outcome] = h
	}
	h.observe(seconds)
}

// observeSimTicks counts dynamics ticks actually solved (cache misses) by
// /v1/simulate; a fully warm replay adds zero.
func (m *metrics) observeSimTicks(n int) {
	m.mu.Lock()
	m.simTicks += uint64(n)
	m.mu.Unlock()
}

// observeQuery counts one /v1/query answer under its source ("surrogate"
// or "solve").
func (m *metrics) observeQuery(source string) {
	m.mu.Lock()
	m.queries[source]++
	m.mu.Unlock()
}

// observeFrame records one batch frame's write+flush latency.
func (m *metrics) observeFrame(seconds float64) {
	m.mu.Lock()
	m.frames.observe(seconds)
	m.mu.Unlock()
}

func (m *metrics) solveStarted() {
	m.mu.Lock()
	m.inFlight++
	m.mu.Unlock()
}

func (m *metrics) solveFinished() {
	m.mu.Lock()
	m.inFlight--
	m.mu.Unlock()
}

// renderSnapshot is the point-in-time copy render formats from: the mutex
// guards only the counter copy, never the formatting work, so a slow
// /metrics reader cannot stall request and solve accounting.
type renderSnapshot struct {
	requests map[string]map[int]uint64
	solve    map[string]*histogram
	frames   *histogram
	inFlight int64
	simTicks uint64
	queries  map[string]uint64
}

func (m *metrics) snapshot() renderSnapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	snap := renderSnapshot{
		requests: make(map[string]map[int]uint64, len(m.requests)),
		solve:    make(map[string]*histogram, len(m.solve)),
		frames:   m.frames.clone(),
		inFlight: m.inFlight,
		simTicks: m.simTicks,
		queries:  make(map[string]uint64, len(m.queries)),
	}
	for src, n := range m.queries {
		snap.queries[src] = n
	}
	for r, byCode := range m.requests {
		cp := make(map[int]uint64, len(byCode))
		for c, n := range byCode {
			cp[c] = n
		}
		snap.requests[r] = cp
	}
	for o, h := range m.solve {
		snap.solve[o] = h.clone()
	}
	return snap
}

// render writes the full exposition: request counters, cache gauges and
// counters (from st), solver-kernel counters (from solver), the in-flight
// gauge, the outcome-labeled solve histogram, the batch frame histogram,
// build info, and uptime. It formats from a snapshot so no lock is held
// while writing.
func (m *metrics) render(w *strings.Builder, st cache.Stats, solver obs.SolveStats, refined obs.RefineStats, build obs.BuildInfo, recorded uint64, uptimeSeconds float64) {
	snap := m.snapshot()

	fmt.Fprintf(w, "# HELP pubopt_http_requests_total HTTP requests served, by route pattern and status code.\n")
	fmt.Fprintf(w, "# TYPE pubopt_http_requests_total counter\n")
	routes := make([]string, 0, len(snap.requests))
	for r := range snap.requests {
		routes = append(routes, r)
	}
	sort.Strings(routes)
	for _, r := range routes {
		codes := make([]int, 0, len(snap.requests[r]))
		for c := range snap.requests[r] {
			codes = append(codes, c)
		}
		sort.Ints(codes)
		for _, c := range codes {
			fmt.Fprintf(w, "pubopt_http_requests_total{route=%q,code=\"%d\"} %d\n", r, c, snap.requests[r][c])
		}
	}

	counter := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}
	counter("pubopt_cache_hits_total", "Run requests served from the equilibrium cache.", st.Hits)
	counter("pubopt_cache_misses_total", "Run requests that executed a solve.", st.Misses)
	counter("pubopt_cache_coalesced_total", "Run requests deduplicated onto an in-flight identical solve.", st.Coalesced)
	counter("pubopt_cache_evictions_total", "Cache entries dropped by the LRU bound.", st.Evictions)
	gauge("pubopt_cache_entries", "Results currently cached.", float64(st.Entries))
	gauge("pubopt_cache_max_entries", "The cache's LRU bound (0 = caching disabled).", float64(st.MaxEntries))
	gauge("pubopt_runs_in_flight", "Solves currently executing.", float64(snap.inFlight))

	counter("pubopt_solver_solves_total", "Equilibrium kernel solves across all workers.", solver.Solves)
	counter("pubopt_solver_constrained_total", "Kernel solves in the congested (root-finding) regime.", solver.Constrained)
	counter("pubopt_solver_evals_total", "Aggregate-rate map evaluations (the unit of solver work).", solver.Evals)
	counter("pubopt_solver_warm_brackets_total", "Root searches bracketed from a warm-start level.", solver.WarmBrackets)
	counter("pubopt_solver_cold_brackets_total", "Root searches bracketed from the full level range.", solver.ColdBrackets)
	counter("pubopt_solver_bisections_total", "Safeguard bisection steps forced inside the hybrid root search.", solver.Bisections)
	counter("pubopt_solver_cycle_restarts_total", "Class-dynamics partition-cycle restarts (mover-cap halvings and indifference-band widenings).", solver.CycleRestarts)

	counter("pubopt_refine_points_solved_total", "Adaptive-refinement lattice points materialized by a kernel solve.", refined.PointsSolved)
	counter("pubopt_refine_points_reused_total", "Adaptive-refinement lattice and probe points served by the solve-unit cache.", refined.PointsReused)
	counter("pubopt_refine_probe_solves_total", "Surrogate-verification probe points solved.", refined.ProbeSolves)
	counter("pubopt_refine_cells_split_total", "Refinement cells split into four children by curvature or indicator crossing.", refined.CellsSplit)
	counter("pubopt_refine_cells_verified_total", "Refinement leaves accepted by a solved center point.", refined.CellsVerified)
	fmt.Fprintf(w, "# HELP pubopt_refine_leaf_depth_total Refinement leaves finalized, by depth below the seed grid.\n")
	fmt.Fprintf(w, "# TYPE pubopt_refine_leaf_depth_total counter\n")
	for d, n := range refined.LeafDepths {
		fmt.Fprintf(w, "pubopt_refine_leaf_depth_total{depth=\"%d\"} %d\n", d, n)
	}

	fmt.Fprintf(w, "# HELP pubopt_query_total Point queries answered by /v1/query, by source (surrogate = solve-free, solve = fallback kernel solve).\n")
	fmt.Fprintf(w, "# TYPE pubopt_query_total counter\n")
	sources := make([]string, 0, len(snap.queries))
	for src := range snap.queries {
		sources = append(sources, src)
	}
	sort.Strings(sources)
	for _, src := range sources {
		fmt.Fprintf(w, "pubopt_query_total{source=%q} %d\n", src, snap.queries[src])
	}

	counter("pubopt_events_recorded_total", "Flight-recorder events ever recorded (including overwritten ones).", recorded)

	counter("pubopt_sim_ticks_total", "Dynamics ticks solved by /v1/simulate (cache hits excluded).", snap.simTicks)

	fmt.Fprintf(w, "# HELP pubopt_solve_duration_seconds Run request latency by cache outcome (hit, miss, coalesced, error).\n")
	fmt.Fprintf(w, "# TYPE pubopt_solve_duration_seconds histogram\n")
	outcomes := make([]string, 0, len(snap.solve))
	for o := range snap.solve {
		outcomes = append(outcomes, o)
	}
	sort.Strings(outcomes)
	for _, o := range outcomes {
		snap.solve[o].writeTo(w, "pubopt_solve_duration_seconds", fmt.Sprintf("outcome=%q", o))
	}

	fmt.Fprintf(w, "# HELP pubopt_batch_frame_write_seconds Batch NDJSON frame serialize+write+flush latency.\n")
	fmt.Fprintf(w, "# TYPE pubopt_batch_frame_write_seconds histogram\n")
	snap.frames.writeTo(w, "pubopt_batch_frame_write_seconds", "")

	fmt.Fprintf(w, "# HELP pubopt_build_info Build metadata of the running binary; the value is always 1.\n")
	fmt.Fprintf(w, "# TYPE pubopt_build_info gauge\n")
	fmt.Fprintf(w, "pubopt_build_info{version=%q,go_version=%q,revision=%q,modified=\"%t\"} 1\n",
		build.Version, build.GoVersion, build.Revision, build.Modified)

	gauge("pubopt_uptime_seconds", "Seconds since the server started.", uptimeSeconds)
}
