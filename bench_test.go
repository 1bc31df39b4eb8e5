// Benchmark harness: one benchmark per figure of the paper's evaluation
// (Figures 2–5 and 7–12), the headline regime comparison, the Public
// Option capacity study, and micro-benchmarks of the core solvers.
//
// The market-figure benchmarks solve the figure built-ins (fig4 to fig12,
// regimes-comparison, ablation-pubopt-capacity) at full size — the 1000-CP
// ensemble and full grids — per iteration; they are reproduction harnesses
// first and timing probes second. Run them once each:
//
//	go test -bench=. -benchmem -benchtime=1x
//
// Each figure benchmark reports a headline scalar from the regenerated
// data (peak revenue, surplus level, crossover price …) via ReportMetric so
// regressions in the *economics*, not just the runtime, are visible in
// benchmark diffs.
package publicoption_test

import (
	"testing"

	publicoption "github.com/netecon-sim/publicoption"
)

// builtin returns a copy of the named built-in scenario (fatal if missing).
func builtin(b *testing.B, name string) *publicoption.Scenario {
	b.Helper()
	s, ok := publicoption.ScenarioByName(name)
	if !ok {
		b.Fatalf("missing built-in %s", name)
	}
	return s
}

// runGrid solves a grid built-in once per iteration and returns the last
// run's grid for metric extraction.
func runGrid(b *testing.B, name string) *publicoption.ResultGrid {
	b.Helper()
	s := builtin(b, name)
	var g *publicoption.ResultGrid
	for i := 0; i < b.N; i++ {
		var err error
		if g, err = s.RunGrid(publicoption.ScenarioRunOptions{}); err != nil {
			b.Fatal(err)
		}
	}
	return g
}

// runTables solves a 1-D built-in once per iteration and returns the last
// run's tables.
func runTables(b *testing.B, name string) []*publicoption.ResultTable {
	b.Helper()
	s := builtin(b, name)
	var tables []*publicoption.ResultTable
	for i := 0; i < b.N; i++ {
		var err error
		if tables, err = s.Run(publicoption.ScenarioRunOptions{}); err != nil {
			b.Fatal(err)
		}
	}
	return tables
}

// row returns one row of a grid layer as a series over the column axis.
func row(b *testing.B, g *publicoption.ResultGrid, layer string, r int) publicoption.ResultSeries {
	b.Helper()
	s, err := g.Row(layer, r)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// seriesByName finds a series in a table (fatal if missing).
func seriesByName(b *testing.B, tbl *publicoption.ResultTable, name string) publicoption.ResultSeries {
	b.Helper()
	for _, s := range tbl.Series {
		if s.Name == name {
			return s
		}
	}
	b.Fatalf("table %q missing series %q", tbl.Title, name)
	return publicoption.ResultSeries{}
}

func argmax(ys []float64) int {
	best := 0
	for i, y := range ys {
		if y > ys[best] {
			best = i
		}
	}
	return best
}

func last(ys []float64) float64 { return ys[len(ys)-1] }

// Rows of the figure built-ins: fig4/fig7 rows are ν ∈ {20, 50, 100, 150,
// 200}, fig5/fig8 rows κ ∈ {0.2, 0.5, 0.9}.
const (
	rowNu150, rowNu200 = 3, 4
	rowKappa05         = 1
	rowKappa09         = 2
)

func BenchmarkFig2DemandFamily(b *testing.B) {
	// Paper: β=5 roughly halves demand at a 10% throughput drop.
	var d float64
	for i := 0; i < b.N; i++ {
		d = publicoption.ExponentialDemand{Beta: 5}.At(0.9)
	}
	b.ReportMetric(d, "demand@ω=0.9")
}

func BenchmarkFig3RateEquilibrium(b *testing.B) {
	// Capacity at which Skype-type demand saturates (paper: between Google
	// and Netflix).
	pop := publicoption.Archetypes()
	satur := -1.0
	for i := 0; i < b.N; i++ {
		satur = -1
		for nu := 0.0; nu <= 6000 && satur < 0; nu += 25 {
			if publicoption.RateEquilibrium(nu, pop).Demand(2) >= 0.95 { // skype
				satur = nu
			}
		}
	}
	b.ReportMetric(satur, "skype-satur-ν")
}

func BenchmarkFig4MonopolyPriceSweep(b *testing.B) {
	psi := row(b, runGrid(b, "fig4"), "psi/monopolist", rowNu200)
	peak := argmax(psi.Y)
	b.ReportMetric(psi.X[peak], "c*@ν=200")    // paper: ≈ 0.45
	b.ReportMetric(psi.Y[peak], "Ψpeak@ν=200") // revenue at the optimum
}

func BenchmarkFig5MonopolyStrategyGrid(b *testing.B) {
	g := runGrid(b, "fig5-c05")
	psi := row(b, g, "psi/monopolist", rowKappa09)
	phi := row(b, g, "phi", rowKappa09)
	b.ReportMetric(psi.Y[argmax(psi.Y)], "Ψpeak@κ=0.9")
	b.ReportMetric(last(phi.Y), "Φfinal@κ=0.9")
}

func BenchmarkFig7DuopolyPriceSweep(b *testing.B) {
	g := runGrid(b, "fig7")
	share := row(b, g, "share/incumbent", rowNu150)
	psi150 := row(b, g, "psi/incumbent", rowNu150)
	psi200 := row(b, g, "psi/incumbent", rowNu200)
	b.ReportMetric(share.Y[argmax(share.Y)], "m_I-max@ν=150") // paper: slightly > 0.5
	// Paper: peak Ψ_I at ν=200 is LOWER than at ν=150 under κ=1.
	b.ReportMetric(psi150.Y[argmax(psi150.Y)], "Ψpeak@ν=150")
	b.ReportMetric(psi200.Y[argmax(psi200.Y)], "Ψpeak@ν=200")
}

func BenchmarkFig8DuopolyStrategyGrid(b *testing.B) {
	g := runGrid(b, "fig8-c02")
	b.ReportMetric(last(row(b, g, "share/incumbent", rowKappa05).Y), "m_I@abundant") // paper: ≤ 0.5
	b.ReportMetric(last(row(b, g, "phi", rowKappa05).Y), "Φ@abundant")
}

func BenchmarkFig9MonopolyPriceSweepB(b *testing.B) {
	b.ReportMetric(row(b, runGrid(b, "fig9"), "phi", rowNu200).Y[0], "Φ@c=0,ν=200")
}

func BenchmarkFig10MonopolyStrategyGridB(b *testing.B) {
	b.ReportMetric(last(row(b, runGrid(b, "fig10-c05"), "phi", rowKappa05).Y), "Φfinal")
}

func BenchmarkFig11DuopolyPriceSweepB(b *testing.B) {
	share := row(b, runGrid(b, "fig11"), "share/incumbent", rowNu150)
	b.ReportMetric(share.Y[argmax(share.Y)], "m_I-max@ν=150")
}

func BenchmarkFig12DuopolyStrategyGridB(b *testing.B) {
	b.ReportMetric(last(row(b, runGrid(b, "fig12-c02"), "phi", rowKappa05).Y), "Φ@abundant")
}

func BenchmarkRegimesComparison(b *testing.B) {
	phi := runTables(b, "regimes-comparison")[0]
	// The paper's headline ordering at abundant capacity.
	b.ReportMetric(last(seriesByName(b, phi, "public-option").Y), "Φ-public-option")
	b.ReportMetric(last(seriesByName(b, phi, "neutral").Y), "Φ-neutral")
	b.ReportMetric(last(seriesByName(b, phi, "unregulated").Y), "Φ-unregulated")
}

func BenchmarkAblationPublicOptionCapacity(b *testing.B) {
	phi := seriesByName(b, runTables(b, "ablation-pubopt-capacity")[0], "phi")
	b.ReportMetric(phi.Y[0], "Φ@γ=0.05")
	b.ReportMetric(last(phi.Y), "Φ@γ=0.5")
}

// --- Micro-benchmarks of the core solvers (true performance probes). ---

func BenchmarkSolverRateEquilibrium1000(b *testing.B) {
	pop := publicoption.PaperPopulation(publicoption.PhiCorrelated)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		publicoption.RateEquilibrium(100, pop)
	}
}

func BenchmarkSolverClassGame1000(b *testing.B) {
	pop := publicoption.PaperPopulation(publicoption.PhiCorrelated)
	s := publicoption.NewSolver(nil)
	strat := publicoption.Strategy{Kappa: 0.5, C: 0.4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Competitive(strat, 100, pop)
	}
}

func BenchmarkSolverDuopoly1000(b *testing.B) {
	pop := publicoption.PaperPopulation(publicoption.PhiCorrelated)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		publicoption.DuopolyWithPublicOption(
			publicoption.Strategy{Kappa: 1, C: 0.3}, 0.5, 100, pop)
	}
}

func BenchmarkTCPSim20Flows(b *testing.B) {
	flows := make([]publicoption.TCPFlow, 20)
	for i := range flows {
		flows[i] = publicoption.TCPFlow{Name: "f", RTT: 0.05}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := publicoption.SimulateTCP(publicoption.TCPConfig{Capacity: 100}, flows); err != nil {
			b.Fatal(err)
		}
	}
}
