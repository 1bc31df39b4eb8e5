package demand_test

import (
	"fmt"

	"github.com/netecon-sim/publicoption/internal/demand"
)

// Figure 2 of the paper: the exponential demand d(ω) = exp(-β(1/ω - 1)) a
// CP keeps when it gets a fraction ω of its unconstrained throughput. At
// β = 5 a 10% throughput drop roughly halves demand; β = 0.1 hardly
// notices a fourfold drop.
func ExampleExponential_figure2() {
	omegas := []float64{0.25, 0.5, 0.75, 0.9, 1}
	fmt.Print("beta \\ omega")
	for _, w := range omegas {
		fmt.Printf(" %6g", w)
	}
	fmt.Println()
	for _, beta := range []float64{0.1, 0.5, 1, 2, 5, 10} {
		d := demand.Exponential{Beta: beta}
		fmt.Printf("%12g", beta)
		for _, w := range omegas {
			fmt.Printf(" %6.3f", d.At(w))
		}
		fmt.Println()
	}
	// Output:
	// beta \ omega   0.25    0.5   0.75    0.9      1
	//          0.1  0.741  0.905  0.967  0.989  1.000
	//          0.5  0.223  0.607  0.846  0.946  1.000
	//            1  0.050  0.368  0.717  0.895  1.000
	//            2  0.002  0.135  0.513  0.801  1.000
	//            5  0.000  0.007  0.189  0.574  1.000
	//           10  0.000  0.000  0.036  0.329  1.000
}
