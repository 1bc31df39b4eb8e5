package alloc_test

import (
	"fmt"

	"github.com/netecon-sim/publicoption/internal/alloc"
	"github.com/netecon-sim/publicoption/internal/econ"
	"github.com/netecon-sim/publicoption/internal/traffic"
)

// Figure 3 of the paper: the Google-, Netflix- and Skype-type archetypes
// under max-min fair sharing as per-capita capacity ν (Kbps) grows. Each
// cell is the achieved throughput θ_i and the demand d_i(θ_i) it sustains:
// Google-type demand saturates first, then Skype-type, Netflix-type last.
func ExampleSolve_figure3() {
	pop := traffic.Archetypes()
	fmt.Printf("%-6s", "nu")
	for _, cp := range pop {
		fmt.Printf(" %16s", cp.Name)
	}
	fmt.Println()
	for _, nu := range []float64{250, 500, 1000, 2000, 4000, 6000} {
		res := alloc.Solve(alloc.MaxMin{}, nu, pop)
		fmt.Printf("%-6g", nu)
		for i := range pop {
			fmt.Printf(" %8.1f / %5.3f", res.Theta[i], res.Demand(i))
		}
		fmt.Println()
	}
	// Output:
	// nu               google          netflix            skype
	// 250       311.8 / 0.802    311.8 / 0.000    311.8 / 0.000
	// 500       543.8 / 0.920    543.8 / 0.000    543.8 / 0.000
	// 1000     1000.0 / 1.000   1000.0 / 0.000   1000.0 / 0.000
	// 2000     1000.0 / 1.000   2809.0 / 0.000   2809.0 / 0.712
	// 4000     1000.0 / 1.000   8497.7 / 0.588   3000.0 / 1.000
	// 6000     1000.0 / 1.000  10000.0 / 1.000   3000.0 / 1.000
}

// The allocation-mechanism ablation: consumer surplus Φ(ν) of the
// archetypes under max-min, weighted α-fair and per-CP max-min sharing.
// Every mechanism satisfies Axioms 1–4, so Φ grows with ν under each, but
// weighting moves throughput between the heterogeneous CPs and so moves
// the level: the choice of neutral mechanism matters even without pricing.
func ExampleAlphaFair_ablation() {
	pop := traffic.Archetypes()
	mechs := []alloc.Allocator{
		alloc.MaxMin{},
		alloc.AlphaFair{Alpha: 1, Weights: alloc.WeightByThetaHat},
		alloc.AlphaFair{Alpha: 2, Weights: alloc.WeightByThetaHat},
		alloc.PerCPMaxMin{},
	}
	nus := []float64{50, 500, 2000, 6000}
	fmt.Printf("%-24s", "phi \\ nu")
	for _, nu := range nus {
		fmt.Printf(" %8g", nu)
	}
	fmt.Println()
	for _, mech := range mechs {
		fmt.Printf("%-24s", mech.Name())
		for _, nu := range nus {
			fmt.Printf(" %8.2f", econ.Phi(alloc.Solve(mech, nu, pop)))
		}
		fmt.Println()
	}
	// Output:
	// phi \ nu                       50      500     2000     6000
	// maxmin                      10.00   100.00  1199.84  3500.00
	// alphafair(α=1,weighted)     10.00   126.97  1007.88  3500.00
	// alphafair(α=2,weighted)     10.00   100.01  1167.49  3500.00
	// percp-maxmin                30.00   300.00  1200.00  3500.00
}
