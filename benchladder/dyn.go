package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"github.com/netecon-sim/publicoption/internal/dynamics"
	"github.com/netecon-sim/publicoption/internal/numeric"
	"github.com/netecon-sim/publicoption/internal/obs"
	"github.com/netecon-sim/publicoption/internal/scenario"
)

type dynSize struct {
	pool int // ensembles drawn per built-in
	cps  int // 0 = the built-in's own ensemble size
}

func dynSizes(tiny bool) dynSize {
	if tiny {
		return dynSize{pool: 1, cps: 40}
	}
	return dynSize{pool: 6}
}

// dynBench is the dyn-mix workload: the four dyn-* built-ins with their
// ensembles re-drawn from the seed, each run tick by tick through
// Engine.Step, one trajectory at a time. A round runs every built-in once on
// one pool entry; the loop runs whole cycles of the pool.
type dynBench struct {
	o    options
	sz   dynSize
	pool [][]*scenario.Scenario // [pool entry][built-in]
	refs [][][]byte             // reference trajectory JSON, same indexing
	gaps []float64              // dyn-convergence fixed-point gaps

	ticks []tickTrace
	newMS []float64
}

// tickTrace is one traced tick's solver work and allocation.
type tickTrace struct {
	stats  obs.SolveStats
	allocs uint64
	bytes  uint64
}

func newDynBench(o options) bench { return &dynBench{o: o, sz: dynSizes(o.tiny)} }

func (b *dynBench) setup() error {
	rng := numeric.NewRNG(b.o.seed)
	b.pool, b.refs, b.gaps = nil, nil, nil
	names := scenario.DynamicsNames()
	for p := 0; p < b.sz.pool; p++ {
		var row []*scenario.Scenario
		var refs [][]byte
		for _, name := range names {
			sc, ok := scenario.Get(name)
			if !ok {
				return fmt.Errorf("built-in %s is missing", name)
			}
			if err := sc.ApplyEnsembleOverrides(rng.Uint64()|1, b.sz.cps); err != nil {
				return err
			}
			recs, err := b.trajectory(sc, nil, -1, nil)
			if err != nil {
				return err
			}
			ref, err := json.Marshal(recs)
			if err != nil {
				return err
			}
			if name == "dyn-convergence" {
				gap, err := dynamics.FixedPointGap(sc, recs[len(recs)-1])
				if err != nil {
					return err
				}
				b.gaps = append(b.gaps, gap)
			}
			row = append(row, sc)
			refs = append(refs, ref)
		}
		b.pool = append(b.pool, row)
		b.refs = append(b.refs, refs)
	}
	return nil
}

func (b *dynBench) inputs() any { return b.pool }

func (b *dynBench) close() {}

// trajectory runs one scenario through dynamics.New and Engine.Step,
// recording tick latencies into s (when non-nil) and spans into tr.
func (b *dynBench) trajectory(sc *scenario.Scenario, s *sample, unit int32, tr *tracer) ([]dynamics.TickRecord, error) {
	root := tr.begin("dynamics.trajectory", -1, unit)
	defer tr.end(root)
	rs := newRuntimeSampler()
	t, c0 := time.Now(), cpuTime()
	ns := tr.begin("dynamics.new", root, unit)
	e, err := dynamics.New(sc)
	tr.end(ns)
	if err != nil {
		return nil, err
	}
	newDur := time.Since(t)
	if tr != nil {
		b.newMS = append(b.newMS, ms(newDur))
	}
	recs := make([]dynamics.TickRecord, 0, e.Ticks())
	for e.Tick() < e.Ticks() {
		var r0 runtimeStats
		if tr != nil {
			r0 = rs.read()
		}
		ts := tr.begin("dynamics.tick", root, unit)
		t0 := time.Now()
		rec := e.Step()
		d := time.Since(t0)
		tr.end(ts)
		if tr != nil {
			r1 := rs.read()
			b.ticks = append(b.ticks, tickTrace{stats: rec.Solver, allocs: r1.allocObjects - r0.allocObjects, bytes: r1.allocBytes - r0.allocBytes})
		}
		if s != nil {
			s.unitMS = append(s.unitMS, ms(d))
			if len(recs) == 0 {
				// A cold unit: engine build plus the first tick on fresh solvers.
				s.coldMS = append(s.coldMS, ms(newDur+d))
				s.coldCPU = append(s.coldCPU, cpuSince(c0))
			}
		}
		recs = append(recs, rec)
	}
	return recs, nil
}

func (b *dynBench) measure(deadline time.Time, tr *tracer, s *sample) {
	rs := newRuntimeSampler()
	unit := int32(0)
	for cycle := 0; ; cycle++ {
		// A cycle runs every built-in on every pool entry, so its CPU per
		// tick averages over the same mix in every cycle.
		var cycleCPU, cycleTicks float64
		var cycleWall time.Duration
		for p := range b.pool {
			reps := 1
			if tr != nil {
				reps = 2 // every round twice, for the repeated-exactly flags
			}
			for rep := 0; rep < reps; rep++ {
				var roundStats obs.SolveStats
				var roundTicks uint64
				firstTick := len(b.ticks)
				for k, sc := range b.pool[p] {
					t, c0 := time.Now(), cpuTime()
					recs, err := b.trajectory(sc, s, unit, tr)
					cycleWall += time.Since(t)
					if err != nil {
						s.check(false, "%s (pool %d): %v", sc.Name, p, err)
						continue
					}
					cycleCPU += cpuSince(c0)
					cycleTicks += float64(len(recs))
					s.units += float64(len(recs))
					roundTicks += uint64(len(recs))
					for _, r := range recs {
						roundStats.Accumulate(r.Solver)
					}
					got, err := json.Marshal(recs)
					s.check(err == nil && bytes.Equal(got, b.refs[p][k]),
						"%s (pool %d): trajectory differs from its set-up reference", sc.Name, p)
				}
				s.noteHeap(rs)
				if tr != nil {
					vals := kernelCounts(roundStats)
					vals["dynamics.solves_per_tick"] = ratio(float64(roundStats.Solves), float64(roundTicks))
					var allocs []float64
					for _, t := range b.ticks[firstTick:] {
						allocs = append(allocs, float64(t.allocs))
					}
					vals["dynamics.tick_allocs"] = median(allocs)
					s.count(vals)
				}
				unit++
			}
		}
		s.unitCPU = append(s.unitCPU, ratio(cycleCPU, cycleTicks))
		s.unitRate = append(s.unitRate, ratio(cycleTicks, cycleWall.Seconds()))
		if !time.Now().Before(deadline) {
			break
		}
	}
	s.extras["tick_p99_ms"] = quantile(s.unitMS, 0.99)
	s.extras["ticks"] = float64(len(s.unitMS))
}

func (b *dynBench) verify(s *sample) {
	for _, gap := range b.gaps {
		s.check(gap <= 1e-6, "dyn-convergence: fixed-point gap %g exceeds 1e-6", gap)
	}
}

func (b *dynBench) layers(spans []span, s *sample) map[string]float64 {
	pop, err := b.pool[0][0].Population.Materialize()
	if err != nil {
		return map[string]float64{}
	}
	out := rungsTwice(pop, b.o.tiny, s)
	var allocs, kb []float64
	var st obs.SolveStats
	for _, t := range b.ticks {
		st.Accumulate(t.stats)
		allocs = append(allocs, float64(t.allocs))
		kb = append(kb, float64(t.bytes)/1024)
	}
	for k, v := range kernelCounts(st) {
		out[k] = v
	}
	tickMS := durations(spans, "dynamics.tick")
	out["dynamics.tick_ms"] = median(tickMS)
	out["dynamics.solves_per_tick"] = ratio(float64(st.Solves), float64(len(b.ticks)))
	out["dynamics.tick_allocs"] = median(allocs)
	out["dynamics.tick_kb"] = median(kb)
	out["dynamics.tick_over_kernel"] = overKernel(numeric.Sum(tickMS), float64(st.Solves), out["alloc.solve_us"])
	out["dynamics.new_ms"] = median(b.newMS)
	return out
}
