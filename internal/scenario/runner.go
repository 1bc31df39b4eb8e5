package scenario

import (
	"fmt"
	"runtime"
	"strings"

	"github.com/netecon-sim/publicoption/internal/core"
	"github.com/netecon-sim/publicoption/internal/numeric"
	"github.com/netecon-sim/publicoption/internal/obs"
	"github.com/netecon-sim/publicoption/internal/sweep"
	"github.com/netecon-sim/publicoption/internal/traffic"
)

// RunOptions controls scenario execution, not its meaning: everything that
// changes the modeled outcome lives in the Scenario itself.
type RunOptions struct {
	// Workers bounds parallelism: market cells, regime curves, or
	// population batches depending on the scenario. 0 means GOMAXPROCS.
	// For market sweeps the unit is a cell, a pure function of its
	// coordinates, so no value depends on it.
	Workers int
	// Stats, when non-nil, receives the run's solver telemetry (one atomic
	// publish per run or regime curve, never per solve). Batched large-N
	// scenarios run the water-fill instead of the equilibrium kernels and
	// publish nothing.
	Stats *obs.Counters
}

func (o RunOptions) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// bestResponseGrid is the strategy grid searched by best-responding
// providers — the 3×11 grid the figure reproductions use (it brackets every
// best response observed in Figures 7–8 at a fraction of the cost of the
// full default grid).
func bestResponseGrid() core.StrategyGrid {
	return core.StrategyGrid{
		Kappas: []float64{0, 0.5, 1},
		Cs:     numeric.Linspace(0, 1, 11),
	}
}

// Run validates the scenario, solves its 1-D sweep, and returns one table
// per metric. A provider-market sweep compiles to a one-row GridJob solved
// by SolveCells. Tables carry the scenario title and serialize with
// sweep.Table.WriteCSV. Grid scenarios (Sweep.Grid set) are 2-D and solve
// with RunGrid instead.
func (s *Scenario) Run(opt RunOptions) ([]*sweep.Table, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if s.IsGrid() {
		return nil, fmt.Errorf("scenario %q: declares a 2-D grid sweep (%s); solve it with RunGrid", s.Name, s.axisList())
	}
	if s.IsDynamic() {
		return nil, fmt.Errorf("scenario %q: declares a dynamics simulation; solve it with dynamics.Run", s.Name)
	}
	if s.Regulation != nil {
		return s.runRegimes(opt)
	}
	if s.Population.Kind == "ensemble" && s.Population.Batch > 0 {
		return s.runBatched(opt)
	}
	job, err := s.compile()
	if err != nil {
		return nil, err
	}
	return s.layerTables(job.solveAll(opt)), nil
}

// resolveNu resolves capacity-axis values to absolute model units: scaled
// by the population's saturation when the sweep asks for it.
func (s *Scenario) resolveNu(values []float64, saturation float64) []float64 {
	if !s.Sweep.OfSaturation {
		return values
	}
	out := make([]float64, len(values))
	for i, v := range values {
		out[i] = v * saturation
	}
	return out
}

// point is the full outcome of one market solve: market-level surplus plus
// per-provider metrics.
type point struct {
	phi   float64
	psi   []float64
	share []float64
	util  []float64
}

// layerTables turns a one-row result grid into one table per metric: the
// layer named after the metric becomes the table's one series of that name
// (the market-level "phi"), and each layer metric/curve becomes the series
// curve of the metric's table.
func (s *Scenario) layerTables(g *sweep.Grid) []*sweep.Table {
	var tables []*sweep.Table
	for _, m := range s.Sweep.metrics() {
		t := &sweep.Table{
			Title:  fmt.Sprintf("%s — %s", s.Title, m),
			XLabel: s.Sweep.Axis,
			YLabel: m,
		}
		for _, l := range g.Layers {
			name, ok := strings.CutPrefix(l.Name, m+"/")
			if l.Name == m {
				name, ok = m, true
			}
			if ok {
				t.Add(sweep.Series{Name: name, X: append([]float64(nil), g.Xs...), Y: l.Z[0]})
			}
		}
		tables = append(tables, t)
	}
	return tables
}

// ---------------------------------------------------------------------------
// Provider-market scenarios (monopoly, duopoly, oligopoly, subsidies).

// axisValue is one swept-axis assignment of a sweep point or grid cell.
type axisValue struct {
	axis  string
	value float64
}

// providerEq pairs one solved provider with its consumer market share and
// the class equilibrium behind its metrics — the sampler's handle on the
// actual per-link rate equilibria, which the metric tables flatten away.
type providerEq struct {
	name  string
	share float64
	eq    *core.ClassEquilibrium
}

// solveAt solves the declared market with every listed strategic axis
// assignment applied; the "nu" axis is positional, and callers encode it in
// mk.NuBar before the call. The market is solved into outs, whose buffers
// the caller owns and reuses from call to call: outs[0] takes a plain
// solve, and a best-response search alternates between both. It returns
// the metric point, which is the caller's, and the solved per-provider
// class equilibria, which may alias outs: they are valid only until the
// next solveAt on them, and a caller that keeps them clones them.
func (s *Scenario) solveAt(mk *core.Market, outs *[2]core.MarketOutcome, axes []axisValue) (point, []providerEq) {
	isps := make([]core.ISP, len(s.Providers))
	for i, p := range s.Providers {
		st := core.Strategy{Kappa: p.Kappa, C: p.C}
		if p.PublicOption {
			st = core.PublicOption
		}
		isps[i] = core.ISP{Name: p.Name, Gamma: p.Gamma, Strategy: st}
	}
	sigma0 := s.Providers[0].Sigma
	subsidized := sigma0 > 0 || (len(s.Providers) > 1 && s.Providers[1].Sigma > 0)
	for _, av := range axes {
		switch av.axis {
		case AxisPrice:
			isps[0].Strategy.C = av.value
		case AxisKappa:
			isps[0].Strategy.Kappa = av.value
		case AxisPOShare:
			isps[1].Gamma = av.value
			isps[0].Gamma = 1 - av.value
		case AxisSigma:
			sigma0 = av.value
			subsidized = true
		}
	}
	out := &outs[0]
	if subsidized {
		sub := mk.SolveSubsidizedDuopolyInto(out,
			core.SubsidizedISP{ISP: isps[0], Sigma: sigma0},
			core.SubsidizedISP{ISP: isps[1], Sigma: s.Providers[1].Sigma},
		)
		return marketPoint(sub.GrossPhi, isps, sub.Shares, sub.Eqs)
	}

	if who := bestResponder(s.Providers); who >= 0 {
		prev := mk.MigrationTol
		mk.MigrationTol = 1e-6
		_, out, _ = mk.BestResponseInto(&outs[0], &outs[1], isps, who, bestResponseGrid())
		mk.MigrationTol = prev
	} else {
		mk.SolveInto(out, isps)
	}
	return marketPoint(out.Phi, out.ISPs, out.Shares, out.Eqs)
}

func bestResponder(providers []ProviderSpec) int {
	for i, p := range providers {
		if p.BestResponse {
			return i
		}
	}
	return -1
}

// marketPoint flattens a solved market into its metric point and its
// per-provider equilibria.
func marketPoint(phi float64, isps []core.ISP, shares []float64, eqs []*core.ClassEquilibrium) (point, []providerEq) {
	p := point{
		phi:   phi,
		psi:   make([]float64, len(isps)),
		share: append([]float64(nil), shares...),
		util:  make([]float64, len(isps)),
	}
	peqs := make([]providerEq, len(isps))
	for k := range isps {
		peqs[k] = providerEq{isps[k].Name, shares[k], eqs[k]}
		if eqs[k] != nil {
			p.psi[k] = eqs[k].Psi() * shares[k]
			p.util[k] = eqs[k].Utilization()
		}
	}
	return p, peqs
}

// ---------------------------------------------------------------------------
// Regime-comparison scenarios.

var allRegimes = []string{"unregulated", "kappa-cap", "price-cap", "neutral", "public-option"}

func (s *Scenario) runRegimes(opt RunOptions) ([]*sweep.Table, error) {
	job, err := s.compile()
	if err != nil {
		return nil, err
	}
	rc := s.Regulation.withDefaults()
	regimes := rc.Regimes
	metrics := s.Sweep.metrics()
	var layers []string
	for _, m := range metrics {
		for _, r := range regimes {
			layers = append(layers, m+"/"+r)
		}
	}
	g := sweep.NewGrid(s.Title, s.Sweep.Axis, "", job.Xs, job.Ys, layers)
	// One regime curve per unit: each owns its solver and sweeps capacity
	// sequentially, warm-starting point to point.
	sweep.RunRows(opt.workers(), len(regimes), func(_, r int) {
		mono := core.NewMonopoly(nil)
		for i, nu := range job.Xs {
			o := rc.solve(mono, regimes[r], nu, job.pop)
			vals := map[string]float64{
				MetricPhi: o.Phi, MetricPsi: o.Psi, MetricShare: o.Share,
				MetricUtilization: o.Market.Eqs[0].Utilization(),
			}
			for mi, m := range metrics {
				g.Layers[mi*len(regimes)+r].Z[0][i] = vals[m]
			}
		}
		opt.Stats.Add(mono.Solver.Stats())
	})
	return s.layerTables(g), nil
}

// withDefaults fills unset regulation knobs with the registry defaults (no
// listed regimes means all of them), so the runner and the equilibrium
// sampler resolve regimes identically.
func (r RegulationSpec) withDefaults() RegulationSpec {
	if len(r.Regimes) == 0 {
		r.Regimes = allRegimes
	}
	if r.KappaCap <= 0 || r.KappaCap > 1 {
		r.KappaCap = 0.5
	}
	if r.PriceCap <= 0 {
		r.PriceCap = 0.3
	}
	if r.POShare <= 0 || r.POShare >= 1 {
		r.POShare = 0.5
	}
	if r.GridN <= 0 {
		r.GridN = 30
	}
	return r
}

// solve solves one regulatory regime at capacity nu on the caller's monopoly
// analyzer, which a regime curve reuses across capacities for its warm
// starts.
func (r RegulationSpec) solve(mono *core.Monopoly, regime string, nu float64, pop traffic.Population) core.RegimeOutcome {
	grid := bestResponseGrid()
	for reg := core.RegimeUnregulated; reg <= core.RegimePublicOption; reg++ {
		if reg.String() == regime {
			return core.SolveRegime(mono, reg, nu, pop, core.RegimeConfig{
				KappaCap: r.KappaCap, PriceCap: r.PriceCap, POShare: r.POShare, GridN: r.GridN, POGrid: &grid,
			})
		}
	}
	panic("scenario: unknown regime " + regime) // Validate rejects these
}

// ---------------------------------------------------------------------------
// Batched large-N scenarios (neutral providers only).

func (s *Scenario) runBatched(opt RunOptions) ([]*sweep.Table, error) {
	bp := newBatchedPop(s.Population.ensembleConfig(), s.Population.seed(), s.Population.Batch)
	grid := s.resolveNu(s.Sweep.XValues(), bp.saturation)

	// With every provider neutral the migration game is Lemma 4's
	// homogeneous equilibrium: shares equal capacity shares and every ISP's
	// per-capita capacity is the system ν̄, so the market outcome is the
	// pooled rate equilibrium. The curve is sequential (each water level
	// warm-starts the next — Axiom 3); parallelism is across population
	// batches inside each point.
	g := sweep.NewGrid(s.Title, s.Sweep.Axis, "", grid, []float64{0}, s.layers())
	tau := 0.0
	for _, i := range ascendingOrder(grid) {
		var phi, util float64
		tau, phi, util = bp.neutralPoint(grid[i], tau, opt.workers())
		// Layers run metric by metric, provider by provider (see layers);
		// Ψ stays 0 for neutral providers.
		li := 0
		for _, m := range s.Sweep.metrics() {
			if m == MetricPhi {
				g.Layers[li].Z[0][i] = phi
				li++
				continue
			}
			for _, p := range s.Providers {
				switch m {
				case MetricShare:
					g.Layers[li].Z[0][i] = p.Gamma
				case MetricUtilization:
					g.Layers[li].Z[0][i] = util
				}
				li++
			}
		}
	}
	return s.layerTables(g), nil
}

// ascendingOrder returns grid indices sorted by value so the water-fill
// warm start sees a monotone capacity sequence even for unsorted Values.
func ascendingOrder(grid []float64) []int {
	idx := make([]int, len(grid))
	for i := range idx {
		idx[i] = i
	}
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && grid[idx[j]] < grid[idx[j-1]]; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	return idx
}
