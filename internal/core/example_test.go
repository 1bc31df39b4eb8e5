package core_test

import (
	"fmt"

	"github.com/netecon-sim/publicoption/internal/core"
	"github.com/netecon-sim/publicoption/internal/numeric"
	"github.com/netecon-sim/publicoption/internal/traffic"
)

// The solution-concept ablation: on a small population the Nash (Def. 2)
// and competitive (Def. 3) CP equilibria agree in premium membership and
// surplus at almost every price — the paper's justification for computing
// competitive equilibria only. Twelve CPs of the paper's ensemble, κ = 0.6
// and ν = 0.35 of saturation.
func ExampleSolver_Nash_ablation() {
	cfg := traffic.PaperEnsemble(traffic.PhiCorrelated)
	cfg.N = 12
	pop := cfg.Generate(numeric.NewRNG(traffic.DefaultSeed))
	nu := 0.35 * pop.TotalUnconstrainedPerCapita()
	solver := core.NewSolver(nil)
	fmt.Println("c      premium nash/comp  phi nash/comp")
	for _, c := range numeric.Linspace(0, 1, 11) {
		strat := core.Strategy{Kappa: 0.6, C: c}
		nash := solver.Nash(strat, nu, pop, 0)
		comp := solver.Competitive(strat, nu, pop)
		fmt.Printf("%.1f  %7d / %-7d  %6.3f / %.3f\n", c, nash.PremiumCount(), comp.PremiumCount(), nash.Phi(), comp.Phi())
	}
	// Output:
	// c      premium nash/comp  phi nash/comp
	// 0.0        4 / 8         2.454 / 2.458
	// 0.1        4 / 4         2.455 / 2.455
	// 0.2        5 / 5         2.576 / 2.576
	// 0.3        5 / 5         2.576 / 2.576
	// 0.4        4 / 4         2.629 / 2.629
	// 0.5        4 / 4         2.629 / 2.629
	// 0.6        4 / 4         2.629 / 2.629
	// 0.7        3 / 3         2.538 / 2.538
	// 0.8        2 / 2         2.723 / 2.723
	// 0.9        1 / 1         2.819 / 2.819
	// 1.0        0 / 0         1.441 / 1.441
}
