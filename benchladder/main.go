// Command benchladder is the repository benchmark: four seeded workloads
// that drive the model's layers from outside, through their public
// functions, and report what an analyst waits for (end-to-end metrics) plus,
// in a separate traced pass, a per-layer ladder from the Theorem-1 kernel up
// through class game, market, grid cell, refinement, dynamics tick, cache
// and HTTP request.
//
// Usage, from the repository root:
//
//	bash benchladder/run.sh --workload sizing-grid --seed 1 --seconds 15 --trace 0
//
// run.sh builds this package with the build and module caches under
// .bench_build/ and runs it with the same flags:
//
//	--workload  sizing-grid | sizing-refine | dyn-mix | serve-mix
//	--seed      input seed; the same seed generates the same inputs (the
//	            run prints their SHA-256 digest)
//	--seconds   how long the timed loop runs
//	--trace     0 = end-to-end metrics; 1 = per-layer metrics from a traced
//	            pass, preceded by an untraced pass of equal length so the
//	            tracing overhead is reported
//
// Set-up (population draws, compiles, engine builds, server start, warm
// priming and the reference outputs the checks compare against) runs five
// times and setup_s is the median of its process CPU time. The timed loop
// then runs units until --seconds have passed and every output is checked: a
// failed check counts against "failed" and makes the command exit 1. The
// last line of standard output is one JSON object {"correct", "attempted",
// "failed", "metrics"}; failed/attempted is the error rate. The lines before
// it are a human-readable summary (with the wall-clock figures) and a
// provenance line (nproc, GOMAXPROCS, Go version, commit, seed, input
// digest). Traced runs also write their spans and the full ladder report to
// .bench_build/reports/.
//
// Per-layer metrics of a layer the chosen workload does not exercise come
// from a short traced run, at test size, of the workload that does; the
// report names the source of every value and, for every count, whether it
// repeated exactly when the same input ran twice.
//
// The benchmark's own tests run every workload at test size:
//
//	cd benchladder && go test ./...
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metricDef declares one reported metric.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd lists the untraced metrics, in output order. Every workload
// reports every one of them; "unit" means the workload's unit of work (see
// workload.unit).
//
// units_per_s is what the user waits for: wall-clock units per second, the
// median over the run's measured chunks (grid passes at nproc workers,
// surrogates, cycles of trajectories, request windows of the closed loop),
// so a regression that costs waiting rather than CPU — a lock serializing
// workers or handlers, poor row balance, a blocking wait — shows in it. The
// other times are process CPU time, which counts the work a unit costs and
// not the time it waited (for a lock, or for a vCPU the host gave to another
// guest), so the two kinds together tell work from waiting. Latency
// percentiles (p50_ms, p90_ms, cold_p50_ms and, for serve-mix, the warm and
// cold tails) are reported alongside but not gated.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"units_per_s", "1/s"},
	{"cpu_ms_per_unit", "ms"},
	{"cold_cpu_ms", "ms"},
	{"alloc_kb_per_unit", "KiB"},
	{"heap_live_mb", "MiB"},
}

// perLayer lists the traced metrics, named <module>.<metric>.
var perLayer = []metricDef{
	{"alloc.solve_us", "us"},
	{"alloc.evals_per_solve", "count"},
	{"alloc.bisections_per_solve", "count"},
	{"alloc.warm_frac", "ratio"},
	{"alloc.cp_evals_per_s", "1/s"},
	{"core.classgame_ms", "ms"},
	{"core.solves_per_classgame", "count"},
	{"core.classgame_allocs", "count"},
	{"core.classgame_kb", "KiB"},
	{"core.classgame_over_kernel", "ratio"},
	{"core.market_ms", "ms"},
	{"core.solves_per_market", "count"},
	{"core.classgames_per_market", "count"},
	{"scenario.cell_ms", "ms"},
	{"scenario.solves_per_cell", "count"},
	{"scenario.cell_allocs", "count"},
	{"scenario.cell_kb", "KiB"},
	{"scenario.cell_over_kernel", "ratio"},
	{"scenario.compile_ms", "ms"},
	{"sweep.busy_frac", "ratio"},
	{"sweep.tail_idle_ms", "ms"},
	{"sweep.parallel_eff", "ratio"},
	{"refine.self_frac", "ratio"},
	{"refine.points_solved", "count"},
	{"refine.probe_solves", "count"},
	{"refine.solved_frac", "ratio"},
	{"refine.screen_frac", "ratio"},
	{"refine.split_frac", "ratio"},
	{"refine.solvers_built", "count"},
	{"refine.point_ms", "ms"},
	{"refine.point_over_cell", "ratio"},
	{"dynamics.tick_ms", "ms"},
	{"dynamics.solves_per_tick", "count"},
	{"dynamics.tick_allocs", "count"},
	{"dynamics.tick_kb", "KiB"},
	{"dynamics.tick_over_kernel", "ratio"},
	{"dynamics.new_ms", "ms"},
	{"cache.hit_frac", "ratio"},
	{"cache.coalesced", "count"},
	{"cache.evictions", "count"},
	{"cache.entries", "count"},
	{"service.runs_warm_ms", "ms"},
	{"service.runs_cold_ms", "ms"},
	{"service.query_ms", "ms"},
	{"service.batch_warm_ms", "ms"},
	{"service.simulate_warm_ms", "ms"},
	{"service.net_ms", "ms"},
	{"service.cold_over_solve", "ratio"},
	{"service.resp_kb", "KiB"},
	{"service.warm_p99_ms", "ms"},
	{"service.cold_p90_ms", "ms"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"runtime.heap_peak_mb", "MiB"},
}

// options is one invocation's configuration.
type options struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	// tiny selects test-size inputs (the benchmark's own tests and the
	// probe runs that fill layers a workload does not exercise).
	tiny bool
	// workers is the load and solve parallelism: nproc.
	workers int
}

// workload is one benchmark workload.
type workload struct {
	name string
	// unit names what one unit of the per-unit metrics is.
	unit string
	// owns lists the layers whose per-layer metrics this workload measures
	// in situ; alloc, core and runtime are measured by every workload.
	owns  []string
	build func(o options) bench
}

// bench is a workload instance.
type bench interface {
	// setup builds everything the timed loop needs, replacing (and
	// releasing) any previous set-up. It runs several times and is timed.
	setup() error
	// inputs returns the generated inputs, for the digest.
	inputs() any
	// measure runs units until the deadline (at least one). tr is nil on
	// untraced passes.
	measure(deadline time.Time, tr *tracer, s *sample)
	// verify runs the post-loop output checks of the pass.
	verify(s *sample)
	// layers derives per-layer metrics from a traced pass.
	layers(spans []span, s *sample) map[string]float64
	// close releases everything set-up acquired.
	close()
}

var workloads = []workload{
	{name: "sizing-grid", unit: "cell", owns: []string{"scenario", "sweep"}, build: newGridBench},
	{name: "sizing-refine", unit: "surrogate", owns: []string{"refine"}, build: newRefineBench},
	{name: "dyn-mix", unit: "tick", owns: []string{"dynamics"}, build: newDynBench},
	{name: "serve-mix", unit: "request", owns: []string{"cache", "service"}, build: newServeBench},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// setupReps is how many times set-up runs; setup_s is the median.
const setupReps = 5

// sample collects one pass's measurements.
type sample struct {
	unitMS  []float64 // wall latency of each unit the user waits for
	coldMS  []float64 // wall latency of each cold unit
	coldCPU []float64 // process CPU time of each cold unit, ms
	// unitCPU holds the process CPU time per unit of each measured chunk
	// (a pass, surrogate, trajectory or request window), ms.
	unitCPU []float64
	// unitRate holds the wall-clock units per second of each measured chunk.
	unitRate []float64
	// units counts the work units behind alloc_kb_per_unit.
	units     float64
	attempted int
	failed    int
	failures  []string
	// counts holds, per count metric, its value on each traced repetition,
	// for the repeated-exactly flags.
	counts map[string][]float64
	// extras are reported but not gated: tails, sample counts.
	extras map[string]float64

	rt0, rt1 runtimeStats
	offAlloc uint64 // bytes allocated by cold units run inside the loop
	heapPeak uint64 // live heap high-water mark at unit boundaries
	heapLive uint64 // live heap after a collection at the end of the loop
}

func newSample() *sample {
	// The latency slices are preallocated so that heap_live_mb does not
	// depend on how many units a run completed.
	return &sample{
		unitMS:  make([]float64, 0, 1<<16),
		coldMS:  make([]float64, 0, 1<<12),
		coldCPU: make([]float64, 0, 1<<12),
		counts:  make(map[string][]float64),
		extras:  make(map[string]float64),
	}
}

// check counts one checked output and records a failure.
func (s *sample) check(ok bool, format string, args ...any) {
	s.attempted++
	if ok {
		return
	}
	s.failed++
	if len(s.failures) < 8 {
		s.failures = append(s.failures, fmt.Sprintf(format, args...))
	}
}

// offLoop runs cold units (and their checks) inside the timed loop,
// interleaved with the warm ones so both see the same host load, without
// charging their allocations to alloc_kb_per_unit.
func (s *sample) offLoop(rs *runtimeSampler, f func()) {
	r0 := rs.read()
	f()
	s.offAlloc += rs.read().allocBytes - r0.allocBytes
}

// noteHeap samples the live heap at a unit boundary.
func (s *sample) noteHeap(rs *runtimeSampler) {
	if h := rs.read().heapBytes; h > s.heapPeak {
		s.heapPeak = h
	}
}

// phase runs one measured pass: the timed loop, then its output checks.
func phase(b bench, d time.Duration, tr *tracer) *sample {
	s := newSample()
	rs := newRuntimeSampler()
	runtime.GC()
	s.rt0 = rs.read()
	b.measure(time.Now().Add(d), tr, s)
	s.rt1 = rs.read()
	// What the workload still holds once garbage is collected; the second
	// collection also empties the sync.Pool victim caches.
	runtime.GC()
	runtime.GC()
	s.heapLive = rs.read().heapBytes
	s.extras["peak_rss_mb"] = peakRSSMiB()
	b.verify(s)
	return s
}

// endToEndValues derives the end-to-end metrics of a pass.
func endToEndValues(s *sample, setupS float64) map[string]float64 {
	return map[string]float64{
		"setup_s":           setupS,
		"units_per_s":       median(s.unitRate),
		"cpu_ms_per_unit":   median(s.unitCPU),
		"cold_cpu_ms":       trimmedMean(s.coldCPU),
		"alloc_kb_per_unit": ratio(float64(s.rt1.allocBytes-s.rt0.allocBytes-s.offAlloc)/1024, s.units),
		"heap_live_mb":      float64(s.heapLive) / (1 << 20),
	}
}

// wallValues are the wall-clock figures reported next to the gated metrics.
func wallValues(s *sample) map[string]float64 {
	return map[string]float64{
		"p50_ms":      median(s.unitMS),
		"p90_ms":      quantile(s.unitMS, 0.9),
		"cold_p50_ms": median(s.coldMS),
		"units":       float64(len(s.unitMS)),
	}
}

// cpuSince is the process CPU time since c0, in ms.
func cpuSince(c0 time.Duration) float64 { return ms(cpuTime() - c0) }

// runtimeLayer derives the runtime layer of a traced pass.
func runtimeLayer(s *sample) map[string]float64 {
	return map[string]float64{
		"runtime.gc_cpu_frac":  ratio(s.rt1.gcCPU-s.rt0.gcCPU, s.rt1.totalCPU-s.rt0.totalCPU),
		"runtime.heap_peak_mb": float64(s.heapPeak) / (1 << 20),
	}
}

// report is everything one invocation measured.
type report struct {
	Workload   string             `json:"workload"`
	Provenance map[string]any     `json:"provenance"`
	Digest     string             `json:"input_digest"`
	SetupS     []float64          `json:"setup_s_each"`
	Metrics    map[string]float64 `json:"metrics"`
	Extras     map[string]float64 `json:"extras,omitempty"`
	// Traced runs only.
	Untraced  map[string]float64            `json:"untraced,omitempty"`
	Overhead  map[string]float64            `json:"tracing_overhead,omitempty"`
	Source    map[string]string             `json:"source,omitempty"`
	Repeated  map[string]bool               `json:"repeated_exactly,omitempty"`
	Ladder    map[string]map[string]float64 `json:"ladder,omitempty"`
	SelfMS    map[string]float64            `json:"self_ms,omitempty"`
	Attempted int                           `json:"attempted"`
	Failed    int                           `json:"failed"`
	Failures  []string                      `json:"failures,omitempty"`
	spans     []span
}

// execute runs one workload invocation.
func execute(w workload, o options) (*report, error) {
	b := w.build(o)
	defer b.close()
	rep := &report{Workload: w.name, Provenance: provenance(o)}
	var setupWall []float64
	for i := 0; i < setupReps; i++ {
		t, c := time.Now(), cpuTime()
		if err := b.setup(); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		rep.SetupS = append(rep.SetupS, cpuSince(c)/1e3)
		setupWall = append(setupWall, time.Since(t).Seconds())
	}
	rep.Digest = digestJSON(b.inputs())
	setupS := median(rep.SetupS)

	if !o.trace {
		s := phase(b, o.seconds, nil)
		rep.Metrics = endToEndValues(s, setupS)
		rep.Extras = s.extras
		for k, v := range wallValues(s) {
			rep.Extras[k] = v
		}
		rep.Extras["setup_wall_s"] = median(setupWall)
		rep.tally(s)
		return rep, nil
	}

	plain := phase(b, o.seconds/2, nil)
	tr := newTracer()
	traced := phase(b, o.seconds/2, tr)
	rep.tally(plain)
	rep.tally(traced)
	rep.spans = tr.snapshot()
	rep.Untraced = endToEndValues(plain, setupS)
	tracedE2E := endToEndValues(traced, setupS)
	for k, v := range wallValues(plain) {
		rep.Untraced[k] = v
	}
	for k, v := range wallValues(traced) {
		tracedE2E[k] = v
	}
	rep.Overhead = make(map[string]float64)
	for k, v := range tracedE2E {
		rep.Overhead[k] = v - rep.Untraced[k]
	}
	rep.Extras = traced.extras
	rep.SelfMS = selfTimes(rep.spans)

	vals := b.layers(rep.spans, traced)
	for k, v := range runtimeLayer(traced) {
		vals[k] = v
	}
	rep.Source = make(map[string]string)
	for k := range vals {
		rep.Source[k] = "in situ"
	}
	rep.Repeated = repeatFlags(traced.counts)
	if err := fillFromOwners(w, o, vals, rep); err != nil {
		return nil, err
	}
	rep.Metrics = vals
	rep.Ladder = ladder(vals)
	return rep, nil
}

func (r *report) tally(s *sample) {
	r.Attempted += s.attempted
	r.Failed += s.failed
	r.Failures = append(r.Failures, s.failures...)
}

// count records one traced repetition's value of every count metric in
// vals. Traced passes run each input twice in a row, so consecutive values
// pair up.
func (s *sample) count(vals map[string]float64) {
	for _, m := range perLayer {
		if v, ok := vals[m.Name]; ok && m.Unit == "count" {
			s.counts[m.Name] = append(s.counts[m.Name], v)
		}
	}
}

// repeatFlags marks, per count metric, whether both runs of every repeated
// input produced the same count.
func repeatFlags(counts map[string][]float64) map[string]bool {
	out := make(map[string]bool, len(counts))
	for k, vs := range counts {
		same := len(vs) > 1
		for i := 0; i+1 < len(vs); i += 2 {
			if math.Abs(vs[i+1]-vs[i]) > 0 {
				same = false
			}
		}
		out[k] = same
	}
	return out
}

// fillFromOwners completes a traced run's per-layer metrics: each metric the
// workload did not measure comes from a short traced run, at test size and
// the same seed, of the workload that owns its layer.
func fillFromOwners(w workload, o options, vals map[string]float64, rep *report) error {
	missing := make(map[string]bool)
	for _, m := range perLayer {
		if _, ok := vals[m.Name]; !ok {
			missing[layerOf(m.Name)] = true
		}
	}
	for _, owner := range workloads {
		if owner.name == w.name || !ownsAny(owner, missing) {
			continue
		}
		po := options{seed: o.seed, seconds: time.Second, trace: true, tiny: true, workers: o.workers}
		b := owner.build(po)
		err := b.setup()
		if err != nil {
			b.close()
			return fmt.Errorf("probe %s set-up: %w", owner.name, err)
		}
		tr := newTracer()
		s := phase(b, po.seconds, tr)
		got := b.layers(tr.snapshot(), s)
		b.close()
		rep.tally(s)
		for k, v := range got {
			if _, ok := vals[k]; ok || !missing[layerOf(k)] || !ownsAny(owner, map[string]bool{layerOf(k): true}) {
				continue
			}
			vals[k] = v
			rep.Source[k] = "probe: " + owner.name + " at test size"
			if flags, ok := repeatFlags(s.counts)[k]; ok {
				rep.Repeated[k] = flags
			}
		}
	}
	return nil
}

func layerOf(metric string) string {
	if i := strings.IndexByte(metric, '.'); i >= 0 {
		return metric[:i]
	}
	return metric
}

func ownsAny(w workload, layers map[string]bool) bool {
	for _, l := range w.owns {
		if layers[l] {
			return true
		}
	}
	return false
}

// ladder lists each derived overhead ratio with its base. The kernel base is
// a warm solve over the whole population, so a ratio below 1 means the
// layer's solves are cheaper than that (class sub-populations, tighter warm
// brackets), not that the layer costs less than nothing.
func ladder(v map[string]float64) map[string]map[string]float64 {
	return map[string]map[string]float64{
		"core.classgame_over_kernel": {
			"value": v["core.classgame_over_kernel"], "classgame_ms": v["core.classgame_ms"],
			"solves_per_classgame": v["core.solves_per_classgame"], "kernel_solve_us": v["alloc.solve_us"],
		},
		"scenario.cell_over_kernel": {
			"value": v["scenario.cell_over_kernel"], "cell_ms": v["scenario.cell_ms"],
			"solves_per_cell": v["scenario.solves_per_cell"], "kernel_solve_us": v["alloc.solve_us"],
			"alloc.warm_frac": v["alloc.warm_frac"], "refine.solvers_built": v["refine.solvers_built"],
		},
		"dynamics.tick_over_kernel": {
			"value": v["dynamics.tick_over_kernel"], "tick_ms": v["dynamics.tick_ms"],
			"solves_per_tick": v["dynamics.solves_per_tick"], "kernel_solve_us": v["alloc.solve_us"],
		},
		"refine.point_over_cell": {
			"value": v["refine.point_over_cell"], "point_ms": v["refine.point_ms"],
			"cell_ms": v["scenario.cell_ms"], "refine.solvers_built": v["refine.solvers_built"],
			"alloc.warm_frac": v["alloc.warm_frac"],
		},
		"service.cold_over_solve": {
			"value": v["service.cold_over_solve"], "runs_cold_ms": v["service.runs_cold_ms"],
		},
	}
}

// provenance stamps a result with where and how it was measured.
func provenance(o options) map[string]any {
	commit := os.Getenv("BENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit,
		"seed":       o.seed,
		"seconds":    o.seconds.Seconds(),
		"trace":      o.trace,
		"workers":    o.workers,
	}
}

// metricJSON is one metric on the result line.
type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchladder", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: sizing-grid, sizing-refine, dyn-mix or serve-mix")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "length of the timed loop in seconds")
	trace := fs.Int("trace", 0, "1 = traced per-layer pass, 0 = end-to-end metrics")
	tiny := fs.Bool("tiny", false, "test-size inputs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *trace < 0 || *trace > 1 || !(*seconds > 0) {
		fmt.Fprintf(stderr, "benchladder: need --workload (sizing-grid, sizing-refine, dyn-mix, serve-mix), --seconds > 0 and --trace 0|1\n")
		return 2
	}
	o := options{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1,
		tiny:    *tiny,
		workers: runtime.NumCPU(),
	}
	rep, err := execute(w, o)
	if err != nil {
		fmt.Fprintf(stderr, "benchladder: %v\n", err)
		return 1
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	line := resultLine{
		Correct:   rep.Failed == 0,
		Attempted: rep.Attempted,
		Failed:    rep.Failed,
		Metrics:   make(map[string]metricJSON, len(defs)),
	}
	for _, d := range defs {
		v := rep.Metrics[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			line.Correct = false
			rep.Failures = append(rep.Failures, fmt.Sprintf("metric %s is not finite", d.Name))
			v = 0
		}
		line.Metrics[d.Name] = metricJSON{Value: v, Unit: d.Unit}
	}
	if o.trace {
		if path, err := writeTrace(rep); err != nil {
			fmt.Fprintf(stderr, "benchladder: writing trace: %v\n", err)
		} else {
			fmt.Fprintf(stdout, "trace report: %s\n", path)
		}
	}
	printSummary(stdout, w, rep, defs)
	out, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(stderr, "benchladder: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	if !line.Correct {
		return 1
	}
	return 0
}

// printSummary writes the human-readable lines before the result line.
func printSummary(w io.Writer, wl workload, rep *report, defs []metricDef) {
	fmt.Fprintf(w, "workload %s (unit: %s), input digest %s\n", wl.name, wl.unit, rep.Digest)
	for _, d := range defs {
		src := ""
		if s, ok := rep.Source[d.Name]; ok && s != "in situ" {
			src = "  [" + s + "]"
		}
		repeat := ""
		if r, ok := rep.Repeated[d.Name]; ok {
			repeat = fmt.Sprintf("  repeated exactly: %v", r)
		}
		fmt.Fprintf(w, "  %-30s %14.6g %-8s%s%s\n", d.Name, rep.Metrics[d.Name], d.Unit, repeat, src)
	}
	if len(rep.Overhead) > 0 {
		fmt.Fprintln(w, "  tracing overhead, traced minus untraced:")
		for _, k := range sortedKeys(rep.Overhead) {
			fmt.Fprintf(w, "    %-28s %+14.6g (untraced %.6g)\n", k, rep.Overhead[k], rep.Untraced[k])
		}
	}
	for _, k := range sortedKeys(rep.Extras) {
		fmt.Fprintf(w, "  extra %-24s %14.6g\n", k, rep.Extras[k])
	}
	for _, f := range rep.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	prov, _ := json.Marshal(map[string]any{"provenance": rep.Provenance, "input_digest": rep.Digest, "error_rate": ratio(float64(rep.Failed), float64(rep.Attempted))})
	fmt.Fprintln(w, string(prov))
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// writeTrace writes a traced run's spans and ladder report under
// .bench_build/reports/ in the working directory.
func writeTrace(rep *report) (string, error) {
	dir := filepath.Join(".bench_build", "reports")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%v.json", rep.Workload, rep.Provenance["seed"]))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		*report
		Spans []span `json:"spans"`
	}{rep, rep.spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return path, err
}
