package mm1_test

import (
	"fmt"

	"github.com/netecon-sim/publicoption/internal/alloc"
	"github.com/netecon-sim/publicoption/internal/core"
	"github.com/netecon-sim/publicoption/internal/mm1"
	"github.com/netecon-sim/publicoption/internal/numeric"
	"github.com/netecon-sim/publicoption/internal/traffic"
)

// The congestion-abstraction ablation (§V) on the paper's 1000-CP
// ensemble: the M/M/1 delay model always leaves capacity headroom
// (utilization below 1) where max-min sharing is work-conserving, and its
// monopoly revenue curve decays smoothly where the max-min one falls off
// affordability cliffs. ν is given as a fraction of saturation.
func ExampleSolve_ablation() {
	pop := traffic.PaperPopulation(traffic.PhiCorrelated)
	sat := pop.TotalUnconstrainedPerCapita()
	fmt.Println("nu/sat  maxmin-util  mm1-util")
	for _, f := range []float64{0.1, 0.5, 1, 1.2} {
		nu := f * sat
		eq := mm1.Solve(nu, pop)
		res := alloc.Solve(alloc.MaxMin{}, nu, pop)
		fmt.Printf("%6g  %11.3f  %8.3f\n", f, res.Aggregate()/nu, eq.TotalLoad()/nu)
	}

	nu := 0.2 * sat
	prices := numeric.Linspace(0, 1, 11)
	m := core.NewMonopoly(nil)
	m.ResetWarm()
	fmt.Println("revenue Ψ(c) at nu/sat = 0.2, κ = 1")
	fmt.Println("   c  maxmin     mm1")
	for _, c := range prices {
		psi := m.Outcome(core.Strategy{Kappa: 1, C: c}, nu, pop).Psi()
		fmt.Printf("%4.1f  %6.3f  %6.3f\n", c, psi, mm1.SolveClasses(1, c, nu, pop, 0).Psi())
	}
	// Output:
	// nu/sat  maxmin-util  mm1-util
	//    0.1        1.000     0.969
	//    0.5        1.000     0.955
	//      1        1.000     0.867
	//    1.2        0.833     0.776
	// revenue Ψ(c) at nu/sat = 0.2, κ = 1
	//    c  maxmin     mm1
	//  0.0   0.000   0.000
	//  0.1   4.963   4.764
	//  0.2   9.925   9.461
	//  0.3  14.888  14.108
	//  0.4  19.851  18.543
	//  0.5  24.814  22.649
	//  0.6  29.776  26.157
	//  0.7  34.739  28.479
	//  0.8  35.169  27.014
	//  0.9  18.865  16.339
	//  1.0   0.000   0.000
}
