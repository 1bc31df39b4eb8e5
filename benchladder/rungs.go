package main

import (
	"time"

	"github.com/netecon-sim/publicoption/internal/alloc"
	"github.com/netecon-sim/publicoption/internal/core"
	"github.com/netecon-sim/publicoption/internal/obs"
	"github.com/netecon-sim/publicoption/internal/traffic"
)

// The direct rungs of the ladder: the kernel, the class game and the market
// timed on their own, on the workload's population, so the layers above can
// be expressed as multiples of kernel work.

// incumbent is the strategy every workload's incumbent plays: all capacity
// premium at price 0.4 (the po-sizing-gamma-nu built-in's incumbent).
var incumbent = core.Strategy{Kappa: 1, C: 0.4}

// rungReps is how many timed calls each direct rung makes.
func rungReps(tiny bool) (kernel, classgame, market int) {
	if tiny {
		return 40, 6, 2
	}
	return 400, 40, 6
}

// directRungs times the kernel, class game and market on pop at 40% of its
// saturation capacity, warm-started the way sweeps use them.
func directRungs(pop traffic.Population, tiny bool) map[string]float64 {
	nk, nc, nm := rungReps(tiny)
	sat := pop.TotalUnconstrainedPerCapita()
	nus := []float64{0.39 * sat, 0.4 * sat, 0.41 * sat}
	rs := newRuntimeSampler()
	out := make(map[string]float64)

	ws := alloc.NewWorkspace(alloc.MaxMin{})
	ws.Solve(nus[0], pop)
	st0 := ws.Stats()
	t := time.Now()
	for i := 0; i < nk; i++ {
		ws.Solve(nus[i%len(nus)], pop)
	}
	kernel := time.Since(t)
	d := ws.Stats().Since(st0)
	solveUS := float64(kernel) / 1e3 / float64(nk)
	out["alloc.solve_us"] = solveUS
	out["alloc.cp_evals_per_s"] = ratio(float64(d.Evals)*float64(len(pop)), kernel.Seconds())

	s := core.NewSolver(nil)
	prices := []float64{0.38, 0.4, 0.42}
	strat := incumbent
	warm := s.Competitive(strat, nus[1], pop).InPremium
	cs0 := s.Stats()
	r0 := rs.read()
	t = time.Now()
	for i := 0; i < nc; i++ {
		strat.C = prices[i%len(prices)]
		warm = s.CompetitiveFrom(strat, nus[1], pop, warm).InPremium
	}
	cg := time.Since(t)
	r1 := rs.read()
	cd := s.Stats().Since(cs0)
	out["core.classgame_ms"] = ms(cg) / float64(nc)
	out["core.solves_per_classgame"] = float64(cd.Solves) / float64(nc)
	out["core.classgame_allocs"] = float64(r1.allocObjects-r0.allocObjects) / float64(nc)
	out["core.classgame_kb"] = float64(r1.allocBytes-r0.allocBytes) / 1024 / float64(nc)
	out["core.classgame_over_kernel"] = overKernel(out["core.classgame_ms"], out["core.solves_per_classgame"], solveUS)

	mk := core.NewMarket(core.NewSolver(nil), pop, nus[1])
	mk.MigrationTol = 1e-7
	gammas := []float64{0.3, 0.5, 0.7}
	ms0 := mk.Solver.Stats()
	t = time.Now()
	for i := 0; i < nm; i++ {
		g := gammas[i%len(gammas)]
		mk.SolveDuopoly(
			core.ISP{Name: "incumbent", Gamma: 1 - g, Strategy: incumbent},
			core.ISP{Name: "public-option", Gamma: g, Strategy: core.PublicOption},
		)
	}
	mt := time.Since(t)
	md := mk.Solver.Stats().Since(ms0)
	out["core.market_ms"] = ms(mt) / float64(nm)
	out["core.solves_per_market"] = float64(md.Solves) / float64(nm)
	out["core.classgames_per_market"] = ratio(out["core.solves_per_market"], out["core.solves_per_classgame"])
	return out
}

// rungsTwice runs the direct rungs twice, recording their counts for the
// repeated-exactly flags, and returns the second run.
func rungsTwice(pop traffic.Population, tiny bool, s *sample) map[string]float64 {
	s.count(directRungs(pop, tiny))
	out := directRungs(pop, tiny)
	s.count(out)
	return out
}

// kernelCounts derives the in-situ kernel metrics from a layer's solver
// telemetry.
func kernelCounts(st obs.SolveStats) map[string]float64 {
	return map[string]float64{
		"alloc.evals_per_solve":      ratio(float64(st.Evals), float64(st.Solves)),
		"alloc.bisections_per_solve": ratio(float64(st.Bisections), float64(st.Solves)),
		"alloc.warm_frac":            ratio(float64(st.WarmBrackets), float64(st.WarmBrackets+st.ColdBrackets)),
	}
}

// overKernel expresses a layer's per-unit time as a multiple of the kernel
// work inside it.
func overKernel(unitMS, solvesPerUnit, solveUS float64) float64 {
	return ratio(unitMS, solvesPerUnit*solveUS/1e3)
}
