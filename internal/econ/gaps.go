package econ

import (
	"fmt"

	"github.com/netecon-sim/publicoption/internal/alloc"
	"github.com/netecon-sim/publicoption/internal/traffic"
)

// CheckTheorem2 numerically verifies Theorem 2 for a neutral (single class,
// no pricing) system: Φ(ν) must be non-decreasing everywhere and strictly
// increasing while the link is still a bottleneck, provided some CP carries
// positive utility. It returns nil on success or a description of the first
// violation. The tolerance tol absorbs solver error.
func CheckTheorem2(a alloc.Allocator, pop traffic.Population, nuGrid []float64, tol float64) error {
	if tol <= 0 {
		tol = 1e-9
	}
	saturation := pop.TotalUnconstrainedPerCapita()
	maxPhi := MaxPhi(pop)
	// Strictness holds when every CP carries utility: the capacity increase
	// reaches some CP (Theorem 2's proof), and that CP's φ_i > 0 turns it
	// into surplus. With some φ_i = 0 the curve may be legitimately flat.
	strict := len(pop) > 0
	for i := range pop {
		if pop[i].Phi <= 0 {
			strict = false
			break
		}
	}
	prevPhi := 0.0
	prevNu := 0.0
	for k, nu := range nuGrid {
		phi := PhiAt(a, nu, pop)
		if phi < -tol || phi > maxPhi*(1+1e-6)+tol {
			return fmt.Errorf("econ: Φ(%g) = %g outside [0, MaxPhi=%g]", nu, phi, maxPhi)
		}
		if k > 0 {
			if phi < prevPhi-tol*maxf(prevPhi, 1) {
				return fmt.Errorf("econ: Φ decreased from %g at ν=%g to %g at ν=%g", prevPhi, prevNu, phi, nu)
			}
			// Strict increase below saturation.
			if strict && nu < saturation && prevNu < nu {
				if phi <= prevPhi && phi < maxPhi*(1-1e-9) {
					return fmt.Errorf("econ: Φ flat (%g) between ν=%g and ν=%g below saturation %g", phi, prevNu, nu, saturation)
				}
			}
		}
		prevPhi, prevNu = phi, nu
	}
	return nil
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
