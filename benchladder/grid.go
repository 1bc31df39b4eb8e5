package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"github.com/netecon-sim/publicoption/internal/numeric"
	"github.com/netecon-sim/publicoption/internal/obs"
	"github.com/netecon-sim/publicoption/internal/refine"
	"github.com/netecon-sim/publicoption/internal/scenario"
	"github.com/netecon-sim/publicoption/internal/sweep"
)

// sizingScenario returns the po-sizing-gamma-nu surface — a (κ=1, c=0.4)
// incumbent against a Public Option, Public Option share γ ∈ [0.05, 0.5]
// by per-capita capacity ν ∈ [nuLo, nuHi] of saturation — at the given
// resolution.
func sizingScenario(cols, rows int, nuLo, nuHi float64) *scenario.Scenario {
	sc, ok := scenario.Get("po-sizing-gamma-nu")
	if !ok {
		panic("benchladder: built-in po-sizing-gamma-nu is missing")
	}
	sc.Sweep.Points = cols
	sc.Sweep.Values = nil
	sc.Sweep.Grid.Values = nil
	sc.Sweep.Grid.Lo, sc.Sweep.Grid.Hi, sc.Sweep.Grid.Points = nuLo, nuHi, rows
	return sc
}

// checkShares checks one solved cell: Φ finite, market shares summing to 1.
func checkShares(s *sample, phi, shareA, shareB float64, where string) {
	ok := !math.IsNaN(phi) && !math.IsInf(phi, 0) && numeric.AlmostEqual(shareA+shareB, 1, 1e-6)
	s.check(ok, "%s: Φ=%g, shares %g+%g do not sum to 1", where, phi, shareA, shareB)
}

// densePass is one traced dense grid pass: the benchmark drives the rows
// through sweep.RunRows and the cells through GridWorker.SolveCell itself,
// so rows and cells get their own spans.
type densePass struct {
	grid     *sweep.Grid
	cells    int
	workers  int
	built    int           // grid workers (solvers) the pass created
	wall     time.Duration // RunRows, compile excluded
	compile  time.Duration
	busy     time.Duration // summed row time over workers
	tailIdle time.Duration // summed over workers: pass end − the worker's last row end
	stats    obs.SolveStats
}

func tracedDense(sc *scenario.Scenario, workers int, tr *tracer, unit int32) (*densePass, error) {
	root := tr.begin("grid.pass", -1, unit)
	defer tr.end(root)
	t0 := time.Now()
	cs := tr.begin("scenario.compile", root, unit)
	job, err := sc.CompileGrid()
	tr.end(cs)
	if err != nil {
		return nil, err
	}
	d := &densePass{compile: time.Since(t0), grid: job.NewGrid(), cells: job.Cells()}
	workers = min(workers, len(job.Ys))
	d.workers = workers
	state := make([]*scenario.GridWorker, workers)
	lastEnd := make([]time.Time, workers)
	busy := make([]time.Duration, workers)
	start := time.Now()
	sweep.RunRows(workers, len(job.Ys), func(worker, row int) {
		rowStart := time.Now()
		rs := tr.begin("sweep.row", root, unit)
		if state[worker] == nil {
			state[worker] = job.NewWorker()
		}
		w := state[worker]
		for col := range job.Xs {
			c := tr.begin("scenario.cell", rs, unit)
			cell := w.SolveCell(row, col)
			tr.end(c)
			for li, name := range job.Layers {
				d.grid.Layers[li].Z[row][col] = cell.Values[name]
			}
		}
		tr.end(rs)
		now := time.Now()
		busy[worker] += now.Sub(rowStart)
		lastEnd[worker] = now
	})
	end := time.Now()
	d.wall = end.Sub(start)
	for i, w := range state {
		if w != nil {
			d.stats.Accumulate(w.Stats())
			d.built++
		}
		d.busy += busy[i]
		if lastEnd[i].IsZero() {
			d.tailIdle += d.wall
		} else {
			d.tailIdle += end.Sub(lastEnd[i])
		}
	}
	return d, nil
}

// denseLayers derives the scenario-layer metrics of traced dense passes.
func denseLayers(passes []*densePass, spans []span, solveUS float64) map[string]float64 {
	var st obs.SolveStats
	var cells int
	var compile []float64
	for _, d := range passes {
		st.Accumulate(d.stats)
		cells += d.cells
		compile = append(compile, ms(d.compile))
	}
	out := kernelCounts(st)
	cellMS := durations(spans, "scenario.cell")
	out["scenario.cell_ms"] = median(cellMS)
	out["scenario.solves_per_cell"] = ratio(float64(st.Solves), float64(cells))
	out["scenario.cell_over_kernel"] = overKernel(numeric.Sum(cellMS), float64(st.Solves), solveUS)
	out["scenario.compile_ms"] = median(compile)
	return out
}

// ---------------------------------------------------------------------------
// sizing-grid

type gridSize struct{ cols, rows, cps, pool, cold int }

func gridSizes(tiny bool) gridSize {
	if tiny {
		return gridSize{cols: 3, rows: 3, cps: 150, pool: 2, cold: 1}
	}
	return gridSize{cols: 8, rows: 8, cps: 1000, pool: 32, cold: 3}
}

// gridBench is the sizing-grid workload: dense γ×ν sizing grids through
// Scenario.RunGrid with nproc workers. Each pass solves the grid on the next
// ensemble of a pool drawn from the seed, so a run's median averages over
// many ensembles rather than resting on one draw.
type gridBench struct {
	o       options
	sz      gridSize
	pool    []*scenario.Scenario
	jobs    []*scenario.GridJob
	pending []coldProbe // cells to re-solve cold after the loop

	passes []*densePass // traced passes at nproc workers
}

// coldProbe is a solved cell kept for the cold re-solve check.
type coldProbe struct {
	pool, row, col int
	values         []float64 // in job layer order
}

func newGridBench(o options) bench { return &gridBench{o: o, sz: gridSizes(o.tiny)} }

func (b *gridBench) setup() error {
	rng := numeric.NewRNG(b.o.seed)
	b.pool, b.jobs = nil, nil
	for i := 0; i < b.sz.pool; i++ {
		sc := sizingScenario(b.sz.cols, b.sz.rows, 0.15, 0.7)
		if err := sc.ApplyEnsembleOverrides(rng.Uint64()|1, b.sz.cps); err != nil {
			return err
		}
		job, err := sc.CompileGrid()
		if err != nil {
			return err
		}
		b.pool = append(b.pool, sc)
		b.jobs = append(b.jobs, job)
	}
	// One untimed pass pays lazy runtime costs (heap growth, page faults)
	// before the loop.
	_, err := b.pool[0].RunGrid(scenario.RunOptions{Workers: b.o.workers})
	return err
}

func (b *gridBench) inputs() any { return b.pool }

func (b *gridBench) close() {}

// coldProbes caps the cold re-solves per pass of the loop, so every run
// re-solves the same cells however many passes it completes.
const coldProbes = 36

// checkGrid checks every cell of a pass and queues cells for the cold
// re-solve: probe j is cell 23·j mod cells in row-major order, which
// spreads the probes over the whole grid.
func (b *gridBench) checkGrid(g *sweep.Grid, p, pass int, s *sample) {
	phi, sa, sb := g.Layer("phi"), g.Layer("share/incumbent"), g.Layer("share/public-option")
	if phi == nil || sa == nil || sb == nil {
		s.check(false, "grid %d lacks the phi/share layers", p)
		return
	}
	for r := range g.Ys {
		for c := range g.Xs {
			checkShares(s, phi.Z[r][c], sa.Z[r][c], sb.Z[r][c], fmt.Sprintf("grid %d cell (%d,%d)", p, r, c))
		}
	}
	for k := 0; k < b.sz.cold; k++ {
		j := pass*b.sz.cold + k
		if j >= coldProbes {
			break
		}
		at := 23 * j % g.Cells()
		r, c := at/len(g.Xs), at%len(g.Xs)
		vals := make([]float64, len(g.Layers))
		for li := range g.Layers {
			vals[li] = g.Layers[li].Z[r][c]
		}
		b.pending = append(b.pending, coldProbe{pool: p, row: r, col: c, values: vals})
	}
}

func (b *gridBench) measure(deadline time.Time, tr *tracer, s *sample) {
	rs := newRuntimeSampler()
	cells := b.jobs[0].Cells()
	for i := 0; ; i++ {
		var g *sweep.Grid
		var err error
		p := i % len(b.pool)
		t, c0 := time.Now(), cpuTime()
		if tr == nil {
			g, err = b.pool[p].RunGrid(scenario.RunOptions{Workers: b.o.workers})
		} else {
			// Traced: every input runs twice, for the repeated-exactly flags.
			p = (i / 2) % len(b.pool)
			var d *densePass
			d, err = tracedDense(b.pool[p], b.o.workers, tr, int32(i))
			if err == nil {
				g = d.grid
				b.passes = append(b.passes, d)
				vals := kernelCounts(d.stats)
				vals["scenario.solves_per_cell"] = float64(d.stats.Solves) / float64(d.cells)
				vals["refine.solvers_built"] = float64(d.built)
				s.count(vals)
			}
		}
		s.unitCPU = append(s.unitCPU, cpuSince(c0)/float64(cells))
		wall := time.Since(t)
		s.unitRate = append(s.unitRate, float64(cells)/wall.Seconds())
		s.unitMS = append(s.unitMS, ms(wall))
		s.units += float64(cells)
		s.noteHeap(rs)
		if err != nil {
			s.check(false, "pass %d: %v", i, err)
		} else {
			b.checkGrid(g, p, i, s)
			s.offLoop(rs, func() { b.verify(s) })
		}
		if !time.Now().Before(deadline) && (tr == nil || i%2 == 1) {
			break
		}
	}
}

// verify re-solves the queued cells cold, each on a fresh worker. The loop
// calls it after every pass, so nothing is left for the end of the phase.
func (b *gridBench) verify(s *sample) {
	for _, c := range b.pending {
		job := b.jobs[c.pool]
		t, c0 := time.Now(), cpuTime()
		cell := job.NewWorker().SolveCell(c.row, c.col)
		s.coldCPU = append(s.coldCPU, cpuSince(c0))
		s.coldMS = append(s.coldMS, ms(time.Since(t)))
		ok := true
		for li, name := range job.Layers {
			if !numeric.AlmostEqual(cell.Values[name], c.values[li], 1e-6) {
				ok = false
			}
		}
		s.check(ok, "grid %d cell (%d,%d): cold re-solve on a fresh worker disagrees with the sweep beyond 1e-6", c.pool, c.row, c.col)
	}
	b.pending = nil
}

func (b *gridBench) layers(spans []span, s *sample) map[string]float64 {
	pop, err := b.pool[0].Population.Materialize()
	if err != nil {
		return map[string]float64{}
	}
	out := rungsTwice(pop, b.o.tiny, s)
	for k, v := range denseLayers(b.passes, spans, out["alloc.solve_us"]) {
		out[k] = v
	}
	var busy, idle, built, firstWall []float64
	for i, d := range b.passes {
		busy = append(busy, ratio(d.busy.Seconds(), float64(d.workers)*d.wall.Seconds()))
		idle = append(idle, ms(d.tailIdle))
		built = append(built, float64(d.built))
		if i < 2 {
			firstWall = append(firstWall, d.wall.Seconds())
		}
	}
	out["sweep.busy_frac"] = median(busy)
	out["sweep.tail_idle_ms"] = median(idle)
	out["refine.solvers_built"] = median(built)

	// Two passes at a single worker over the first input, outside the
	// timed loop, for sweep.parallel_eff and the per-cell allocation counts
	// (with one worker every allocation belongs to the cell being solved).
	rs := newRuntimeSampler()
	var single []float64
	for rep := 0; rep < 2; rep++ {
		r0 := rs.read()
		d, err := tracedDense(b.pool[0], 1, nil, -1)
		r1 := rs.read()
		if err != nil || len(b.passes) == 0 {
			break
		}
		cells := float64(d.cells)
		single = append(single, d.wall.Seconds())
		out["scenario.cell_allocs"] = float64(r1.allocObjects-r0.allocObjects) / cells
		out["scenario.cell_kb"] = float64(r1.allocBytes-r0.allocBytes) / 1024 / cells
		s.count(map[string]float64{"scenario.cell_allocs": out["scenario.cell_allocs"]})
	}
	if len(single) > 0 {
		nproc := float64(b.passes[0].workers)
		// Same input, so cells cancel: (cells/t_nproc) / (nproc · cells/t_1).
		out["sweep.parallel_eff"] = ratio(median(single), nproc*median(firstWall))
	}
	return out
}

// ---------------------------------------------------------------------------
// sizing-refine

type refineSize struct {
	depth, probes, pool int
	stride              int // audit every stride-th fine-lattice point per axis
	auditPerUnit        int // audit points solved after each surrogate
	dense               int // dense comparison grid resolution per axis
}

// refineSizes keeps depth 4 and 8 probes at both sizes: that surrogate
// verified for each of 30 probe seeds with its worst error at 0.44 of the
// tolerance, while depth 3 missed the tolerance for some probe seeds.
func refineSizes(tiny bool) refineSize {
	if tiny {
		return refineSize{depth: 4, probes: 8, pool: 1, stride: 8, auditPerUnit: 4, dense: 5}
	}
	return refineSize{depth: 4, probes: 8, pool: 8, stride: 4, auditPerUnit: 8, dense: 9}
}

// refineTol is the surrogate's relative error tolerance.
const refineTol = 0.01

// refineBench is the sizing-refine workload: verified surrogates of the
// po-sizing-gamma-nu surface through Scenario.RunGridRefined with nproc
// workers, over a 3×3 seed grid. The surface is the built-in's published
// 1000-CP ensemble; the seed draws each surrogate's verification probes.
// (Refinement work follows the surface: over seeded ensembles the solved
// point count ranged 41–182, a spread no regression bound could absorb.)
type refineBench struct {
	o    options
	sz   refineSize
	pool []*scenario.Scenario
	// ref is the set-up surrogate of the first input, which the audit
	// checks, and refLeaves the digest of its leaf cells. Every input has
	// the same surface and differs only in its verification probes, so
	// every build must reproduce those leaves, and the audit of ref covers
	// them all. first holds each input's first build statistics (only
	// digests and statistics, so the retained heap does not grow with the
	// run).
	ref       *refine.Result
	refLeaves [sha256.Size]byte
	first     map[int]obs.RefineStats

	// The strided audit of ref, spread over the loop.
	auditJob *scenario.GridJob
	auditPts [][2]float64
	audited  int     // audit points done this phase
	worst    float64 // worst normalized audit error this phase

	traces []refineTrace
}

// refineTrace is one traced surrogate build.
type refineTrace struct {
	res   *refine.Result
	built int
	stats obs.SolveStats
	run   int32 // index of the refine.run span
}

func newRefineBench(o options) bench { return &refineBench{o: o, sz: refineSizes(o.tiny)} }

func (b *refineBench) setup() error {
	rng := numeric.NewRNG(b.o.seed)
	b.pool, b.first = nil, make(map[int]obs.RefineStats)
	for i := 0; i < b.sz.pool; i++ {
		sc := sizingScenario(3, 3, 0.2, 0.6)
		sc.Sweep.Grid.Refine = &scenario.RefineSpec{
			Tolerance: refineTol, MaxDepth: b.sz.depth, Probes: b.sz.probes, Seed: rng.Uint64() | 1,
		}
		if err := sc.Validate(); err != nil {
			return err
		}
		b.pool = append(b.pool, sc)
	}
	// The reference surrogate of the first input: later builds of it must
	// be identical, and the audit checks it against dense solves.
	res, err := b.pool[0].RunGridRefined(scenario.RunOptions{Workers: b.o.workers})
	if err != nil {
		return err
	}
	b.ref, b.refLeaves, b.first[0] = res, leafDigest(res), res.Stats()
	if b.auditJob, err = b.pool[0].CompileGrid(); err != nil {
		return err
	}
	b.auditPts = b.auditPoints(b.auditJob)
	return nil
}

func (b *refineBench) inputs() any { return b.pool }

func (b *refineBench) close() {}

// timedSolver wraps refine's point solver so each solve is a span.
type timedSolver struct {
	inner        refine.PointSolver
	tr           *tracer
	parent, unit int32
}

func (t *timedSolver) Solve(x, y float64) []float64 {
	i := t.tr.begin("refine.point", t.parent, t.unit)
	v := t.inner.Solve(x, y)
	t.tr.end(i)
	return v
}

// tracedSurrogate builds one surrogate the way RunGridRefined does, with
// Problem.NewSolver wrapped to time the point solves.
func (b *refineBench) tracedSurrogate(sc *scenario.Scenario, tr *tracer, unit int32) (refineTrace, error) {
	root := tr.begin("refine.surrogate", -1, unit)
	defer tr.end(root)
	cs := tr.begin("scenario.compile", root, unit)
	job, err := sc.CompileGrid()
	tr.end(cs)
	if err != nil {
		return refineTrace{}, err
	}
	var sink obs.Counters
	prob, flush := job.RefineProblem(&sink)
	run := tr.begin("refine.run", root, unit)
	var built atomic.Int64
	newSolver := prob.NewSolver
	prob.NewSolver = func() refine.PointSolver {
		built.Add(1)
		return &timedSolver{inner: newSolver(), tr: tr, parent: run, unit: unit}
	}
	res, err := refine.Run(context.Background(), prob, job.RefineSpec(), refine.Options{Workers: b.o.workers})
	tr.end(run)
	flush()
	return refineTrace{res: res, built: int(built.Load()), stats: sink.Snapshot(), run: run}, err
}

func (b *refineBench) measure(deadline time.Time, tr *tracer, s *sample) {
	rs := newRuntimeSampler()
	var points, perPoint []float64
	for i := 0; ; i++ {
		var res *refine.Result
		var err error
		p := i % len(b.pool)
		t, c0 := time.Now(), cpuTime()
		if tr == nil {
			res, err = b.pool[p].RunGridRefined(scenario.RunOptions{Workers: b.o.workers})
		} else {
			p = (i / 2) % len(b.pool)
			var rt refineTrace
			rt, err = b.tracedSurrogate(b.pool[p], tr, int32(i))
			res = rt.res
			if err == nil {
				b.traces = append(b.traces, rt)
				st := res.Stats()
				vals := kernelCounts(rt.stats)
				vals["refine.points_solved"] = float64(st.PointsSolved)
				vals["refine.probe_solves"] = float64(st.ProbeSolves)
				vals["refine.solvers_built"] = float64(rt.built)
				s.count(vals)
			}
		}
		s.unitCPU = append(s.unitCPU, cpuSince(c0))
		d := time.Since(t)
		s.unitMS = append(s.unitMS, ms(d))
		s.unitRate = append(s.unitRate, 1/d.Seconds())
		s.units++
		s.noteHeap(rs)
		if err != nil {
			s.check(false, "surrogate %d: %v", i, err)
		} else {
			points = append(points, float64(res.Stats().PointsSolved))
			perPoint = append(perPoint, ms(d)/float64(res.Stats().PointsSolved))
		}
		s.offLoop(rs, func() {
			if err == nil {
				b.checkSurrogate(res, p, s)
			}
			b.audit(s, b.sz.auditPerUnit)
		})
		if !time.Now().Before(deadline) && (tr == nil || i%2 == 1) {
			break
		}
	}
	s.extras["surrogate_s"] = median(s.unitMS) / 1e3
	s.extras["points_solved"] = median(points)
	s.extras["ms_per_solved_point"] = median(perPoint)
}

// checkSurrogate checks a surrogate's own error contract, that its leaf
// cells (bounds, depths, corner values) are those of the audited set-up
// surrogate, and that repeated builds of the same input report the same
// statistics.
func (b *refineBench) checkSurrogate(res *refine.Result, p int, s *sample) {
	s.check(res.Verified() && res.MaxError() <= refineTol,
		"surrogate %d: verified=%v, max error %g (tolerance %g)", p, res.Verified(), res.MaxError(), refineTol)
	s.check(leafDigest(res) == b.refLeaves, "surrogate %d: its leaves differ from the audited set-up surrogate's", p)
	if first, ok := b.first[p]; ok {
		s.check(first == res.Stats(), "surrogate %d: a repeated build differs from the first (%+v vs %+v)", p, res.Stats(), first)
		return
	}
	b.first[p] = res.Stats()
}

// leafDigest hashes a surrogate's leaf cells: bounds, depth and every
// layer's corner values, in the surrogate's deterministic leaf order.
func leafDigest(res *refine.Result) [sha256.Size]byte {
	h := sha256.New()
	var buf [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	for _, l := range res.Leaves() {
		put(l.X0)
		put(l.X1)
		put(l.Y0)
		put(l.Y1)
		put(float64(l.Depth))
		for _, c := range l.Corners {
			for _, v := range c {
				put(v)
			}
		}
	}
	var out [sha256.Size]byte
	copy(out[:], h.Sum(nil))
	return out
}

// latticeCoords returns the fine-lattice coordinates of a seed axis split
// into s0 steps per seed cell.
func latticeCoords(knots []float64, s0 int) []float64 {
	var out []float64
	for c := 0; c+1 < len(knots); c++ {
		for r := 0; r < s0; r++ {
			out = append(out, knots[c]+(knots[c+1]-knots[c])*float64(r)/float64(s0))
		}
	}
	return append(out, knots[len(knots)-1])
}

// auditPoints lists the strided sub-lattice of the first input's fine
// lattice that the audit solves densely.
func (b *refineBench) auditPoints(job *scenario.GridJob) [][2]float64 {
	xs, ys := latticeCoords(job.Xs, 1<<b.sz.depth), latticeCoords(job.Ys, 1<<b.sz.depth)
	var pts [][2]float64
	for iy := 0; iy < len(ys); iy += b.sz.stride {
		for ix := 0; ix < len(xs); ix += b.sz.stride {
			pts = append(pts, [2]float64{xs[ix], ys[iy]})
		}
	}
	return pts
}

// audit compares the set-up surrogate with dense solves at the next n audit
// points, each on a fresh worker (the cold units). Every pool entry refines
// the same lattice; only the probes differ. The loop audits a few points
// after each surrogate; verify finishes the list and checks the worst error.
func (b *refineBench) audit(s *sample, n int) {
	for ; n > 0 && b.audited < len(b.auditPts); n-- {
		x, y := b.auditPts[b.audited][0], b.auditPts[b.audited][1]
		b.audited++
		t, c0 := time.Now(), cpuTime()
		truth, ok := b.auditJob.ValuesSlice(b.auditJob.NewWorker().SolveAt(x, y))
		s.coldCPU = append(s.coldCPU, cpuSince(c0))
		s.coldMS = append(s.coldMS, ms(time.Since(t)))
		got, err := b.ref.Values(x, y)
		if !ok || err != nil {
			s.check(false, "audit point (%g, %g): incomplete layers or %v", x, y, err)
			continue
		}
		for li := range truth {
			b.worst = math.Max(b.worst, math.Abs(got[li]-truth[li])/b.ref.Scale(li))
		}
	}
}

func (b *refineBench) verify(s *sample) {
	b.audit(s, len(b.auditPts))
	s.check(b.worst <= 1.5*refineTol, "strided audit: worst normalized error %g exceeds %g over %d points", b.worst, 1.5*refineTol, b.audited)
	b.audited, b.worst = 0, 0
}

func (b *refineBench) layers(spans []span, s *sample) map[string]float64 {
	pop, err := b.pool[0].Population.Materialize()
	if err != nil {
		return map[string]float64{}
	}
	out := rungsTwice(pop, b.o.tiny, s)
	var st obs.SolveStats
	var selfFrac, solved, probes, solvedFrac, screen, split, built []float64
	children := make(map[int32][][2]int64)
	for _, sp := range spans {
		if sp.Name == "refine.point" {
			children[sp.Parent] = append(children[sp.Parent], [2]int64{sp.Start, sp.End})
		}
	}
	for _, rt := range b.traces {
		st.Accumulate(rt.stats)
		rs := rt.res.Stats()
		nx, ny := rt.res.FineDims()
		run := spans[rt.run]
		dur := run.End - run.Start
		selfFrac = append(selfFrac, ratio(float64(dur-covered(run.Start, run.End, children[rt.run])), float64(dur)))
		solved = append(solved, float64(rs.PointsSolved))
		probes = append(probes, float64(rs.ProbeSolves))
		solvedFrac = append(solvedFrac, ratio(float64(rs.PointsSolved), float64(nx*ny)))
		screen = append(screen, ratio(float64(rs.CellsInterpolated), float64(rs.Leaves())))
		split = append(split, ratio(float64(rs.CellsSplit), float64(rs.CellsSplit+rs.Leaves())))
		built = append(built, float64(rt.built))
	}
	for k, v := range kernelCounts(st) {
		out[k] = v
	}
	out["refine.self_frac"] = median(selfFrac)
	out["refine.points_solved"] = median(solved)
	out["refine.probe_solves"] = median(probes)
	out["refine.solved_frac"] = median(solvedFrac)
	out["refine.screen_frac"] = median(screen)
	out["refine.split_frac"] = median(split)
	out["refine.solvers_built"] = median(built)
	out["refine.point_ms"] = median(durations(spans, "refine.point"))
	// Two traced dense passes over the same surface at a resolution on the
	// refinement lattice, outside the timed loop, for refine.point_over_cell.
	dense := sizingScenario(b.sz.dense, b.sz.dense, 0.2, 0.6)
	dtr := newTracer()
	var passes []*densePass
	for rep := int32(0); rep < 2; rep++ {
		d, err := tracedDense(dense, b.o.workers, dtr, rep)
		if err != nil {
			break
		}
		passes = append(passes, d)
		s.count(map[string]float64{"scenario.solves_per_cell": float64(d.stats.Solves) / float64(d.cells)})
	}
	for k, v := range denseLayers(passes, dtr.snapshot(), out["alloc.solve_us"]) {
		if layerOf(k) == "scenario" {
			out[k] = v
		}
	}
	out["refine.point_over_cell"] = ratio(out["refine.point_ms"], out["scenario.cell_ms"])
	return out
}
