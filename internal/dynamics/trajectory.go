package dynamics

import (
	"fmt"
	"math"

	"github.com/netecon-sim/publicoption/internal/core"
	"github.com/netecon-sim/publicoption/internal/scenario"
	"github.com/netecon-sim/publicoption/internal/sweep"
)

// Trajectory is a completed simulation run: one TickRecord per tick, plus
// the labels needed to render it without the scenario in hand.
type Trajectory struct {
	Name      string       `json:"name"`
	Title     string       `json:"title"`
	Providers []string     `json:"providers"`
	Metrics   []string     `json:"metrics,omitempty"`
	Ticks     []TickRecord `json:"ticks"`
}

// metrics resolves the recorded metric list with the scenario default.
func (tr *Trajectory) metrics() []string {
	if len(tr.Metrics) == 0 {
		return []string{scenario.MetricPhi}
	}
	return tr.Metrics
}

// Tables renders the trajectory as time-series tables (X = tick): one table
// per recorded metric, plus a controls table carrying prices, capacities,
// the traffic multiplier, and — when a Public Option is present — its M/M/1
// delay. Tables serialize with sweep.Table.WriteCSV and render with the
// root package's chart helpers, exactly like static sweep results.
func (tr *Trajectory) Tables() []*sweep.Table {
	var tables []*sweep.Table
	perProvider := func(title, yLabel string, value func(rec *TickRecord, k int) float64) *sweep.Table {
		t := &sweep.Table{Title: title, XLabel: "tick", YLabel: yLabel}
		for k, name := range tr.Providers {
			s := sweep.Series{Name: name}
			for i := range tr.Ticks {
				s.Append(float64(tr.Ticks[i].Tick), value(&tr.Ticks[i], k))
			}
			t.Add(s)
		}
		return t
	}
	for _, m := range tr.metrics() {
		switch m {
		case scenario.MetricPhi:
			t := &sweep.Table{Title: tr.Title + " — consumer surplus", XLabel: "tick", YLabel: "phi"}
			phi := sweep.Series{Name: "phi"}
			gap := sweep.Series{Name: "phi_gap"}
			for i := range tr.Ticks {
				phi.Append(float64(tr.Ticks[i].Tick), tr.Ticks[i].Phi)
				gap.Append(float64(tr.Ticks[i].Tick), tr.Ticks[i].PhiGap)
			}
			t.Add(phi)
			t.Add(gap)
			tables = append(tables, t)
		case scenario.MetricPsi:
			tables = append(tables, perProvider(tr.Title+" — ISP revenue", "psi",
				func(rec *TickRecord, k int) float64 { return rec.Psi[k] }))
		case scenario.MetricShare:
			tables = append(tables, perProvider(tr.Title+" — market shares", "share",
				func(rec *TickRecord, k int) float64 { return rec.Shares[k] }))
		case scenario.MetricUtilization:
			tables = append(tables, perProvider(tr.Title+" — utilization", "utilization",
				func(rec *TickRecord, k int) float64 { return rec.Util[k] }))
		}
	}
	ctrl := &sweep.Table{Title: tr.Title + " — controls", XLabel: "tick", YLabel: "value"}
	mult := sweep.Series{Name: "multiplier"}
	nuBar := sweep.Series{Name: "nu_bar"}
	for i := range tr.Ticks {
		mult.Append(float64(tr.Ticks[i].Tick), tr.Ticks[i].Multiplier)
		nuBar.Append(float64(tr.Ticks[i].Tick), tr.Ticks[i].NuBar)
	}
	ctrl.Add(mult)
	ctrl.Add(nuBar)
	for k, name := range tr.Providers {
		s := sweep.Series{Name: "price/" + name}
		for i := range tr.Ticks {
			s.Append(float64(tr.Ticks[i].Tick), tr.Ticks[i].Prices[k])
		}
		ctrl.Add(s)
	}
	if tr.hasPODelay() {
		s := sweep.Series{Name: "po_delay"}
		for i := range tr.Ticks {
			s.Append(float64(tr.Ticks[i].Tick), tr.Ticks[i].PODelay)
		}
		ctrl.Add(s)
	}
	tables = append(tables, ctrl)
	return tables
}

// hasPODelay reports whether any tick recorded a Public Option delay.
func (tr *Trajectory) hasPODelay() bool {
	for i := range tr.Ticks {
		if tr.Ticks[i].PODelay > 0 {
			return true
		}
	}
	return false
}

// GridLayers are the per-provider heatmap layers Grid renders.
var GridLayers = []string{"share", "price", "psi", "util"}

// Grid renders the trajectory as a providers×ticks heatmap grid (one row
// per provider, one column per tick) with a layer per per-provider series —
// the `pubopt simulate -format heatmap` view.
func (tr *Trajectory) Grid() *sweep.Grid {
	xs := make([]float64, len(tr.Ticks))
	for i := range tr.Ticks {
		xs[i] = float64(tr.Ticks[i].Tick)
	}
	ys := make([]float64, len(tr.Providers))
	for k := range tr.Providers {
		ys[k] = float64(k)
	}
	g := sweep.NewGrid(tr.Title, "tick", "provider", xs, ys, GridLayers)
	for i := range tr.Ticks {
		rec := &tr.Ticks[i]
		for k := range tr.Providers {
			g.Layer("share").Z[k][i] = rec.Shares[k]
			g.Layer("price").Z[k][i] = rec.Prices[k]
			g.Layer("psi").Z[k][i] = rec.Psi[k]
			g.Layer("util").Z[k][i] = rec.Util[k]
		}
	}
	return g
}

// FixedPointGap measures how far a tick record sits from the static
// Theorem-1/Assumption-5 equilibrium of its own frozen state: the market is
// re-solved one-shot at the record's capacities, strategies, and traffic
// multiplier, and the largest per-provider share deviation is returned. A
// converged trajectory of a well-formed loop is a fixed point of the
// partial-adjustment map, so this gap contracts to solver tolerance — the
// invariant the fixed-point test battery asserts at 1e-6.
func FixedPointGap(sc *scenario.Scenario, rec TickRecord) (float64, error) {
	e, err := New(sc)
	if err != nil {
		return 0, err
	}
	if len(rec.Shares) != len(e.names) {
		return 0, fmt.Errorf("dynamics: record has %d providers, scenario %q has %d", len(rec.Shares), sc.Name, len(e.names))
	}
	e.scalePop(rec.Multiplier)
	copy(e.caps, rec.Caps)
	for k := range e.strats {
		e.strats[k] = core.Strategy{Kappa: rec.Kappas[k], C: rec.Prices[k]}
	}
	out := e.solveMarket()
	var gap float64
	for k := range out.Shares {
		gap = math.Max(gap, math.Abs(out.Shares[k]-rec.Shares[k]))
	}
	return gap, nil
}
