// Package traffic defines the content-provider (CP) side of the Ma–Misra
// three-party ecosystem model (§II): CP parameter records, the paper's named
// archetypes (Google-, Netflix- and Skype-type providers from §II-D), and
// the random CP ensembles used by every numerical experiment (§III-E).
//
// All throughputs are per-user and unit-agnostic; the experiments follow the
// paper and use either a [0,1] scale (random ensembles) or Kbps (the
// three-archetype example of Figure 3). Because the model is scale invariant
// (Axiom 4), only ratios matter.
package traffic

import (
	"fmt"
	"math"

	"github.com/netecon-sim/publicoption/internal/demand"
)

// CP describes one content provider.
//
// The five scalar parameters are exactly the paper's: popularity α_i (the
// fraction of consumers who ever access this CP), unconstrained per-user
// throughput θ̂_i, per-unit-traffic revenue v_i (what the CP earns per unit
// of delivered traffic, from ads, sales or subscriptions), per-unit-traffic
// consumer utility φ_i, and a demand curve (normalized; the paper's Eq. 3
// family carries the sensitivity β_i).
type CP struct {
	Name     string       // display label, e.g. "netflix" or "cp-017"
	Alpha    float64      // popularity α ∈ (0, 1]
	ThetaHat float64      // unconstrained per-user throughput θ̂ > 0
	V        float64      // per-unit-traffic revenue v ≥ 0
	Phi      float64      // per-unit-traffic consumer utility φ ≥ 0
	Curve    demand.Curve // normalized demand curve d(ω)
}

// Validate reports the first model-consistency violation, or nil.
func (c *CP) Validate() error {
	switch {
	case !(c.Alpha > 0 && c.Alpha <= 1):
		return fmt.Errorf("traffic: CP %q has α=%g outside (0,1]", c.Name, c.Alpha)
	case !(c.ThetaHat > 0) || math.IsInf(c.ThetaHat, 0):
		return fmt.Errorf("traffic: CP %q has θ̂=%g, want positive finite", c.Name, c.ThetaHat)
	case c.V < 0 || math.IsNaN(c.V):
		return fmt.Errorf("traffic: CP %q has v=%g, want >= 0", c.Name, c.V)
	case c.Phi < 0 || math.IsNaN(c.Phi):
		return fmt.Errorf("traffic: CP %q has φ=%g, want >= 0", c.Name, c.Phi)
	case c.Curve == nil:
		return fmt.Errorf("traffic: CP %q has no demand curve", c.Name)
	}
	return nil
}

// DemandAt returns d_i(θ), the fraction of this CP's users still active at
// per-user throughput theta.
func (c *CP) DemandAt(theta float64) float64 {
	return c.Curve.At(theta / c.ThetaHat)
}

// Rho returns ρ_i(θ) = d_i(θ)·θ, the per-capita throughput over the CP's own
// user base at achieved per-user throughput theta (Eq. 5 divided by α_i M).
func (c *CP) Rho(theta float64) float64 {
	if theta <= 0 {
		return 0
	}
	if theta > c.ThetaHat {
		theta = c.ThetaHat
	}
	return c.DemandAt(theta) * theta
}

// PerCapitaRate returns α_i·d_i(θ)·θ, CP i's contribution to the aggregate
// per-capita throughput (Eq. 1 divided by M).
func (c *CP) PerCapitaRate(theta float64) float64 {
	return c.Alpha * c.Rho(theta)
}

// UnconstrainedPerCapitaRate returns λ̂_i / M = α_i·θ̂_i, the per-capita
// throughput this CP would consume on an uncongested link.
func (c *CP) UnconstrainedPerCapitaRate() float64 {
	return c.Alpha * c.ThetaHat
}

// Beta returns the throughput sensitivity β when the CP uses the paper's
// exponential demand family, and ok=false otherwise.
func (c *CP) Beta() (beta float64, ok bool) {
	e, ok := c.Curve.(demand.Exponential)
	if !ok {
		return 0, false
	}
	return e.Beta, true
}

// Population is an ordered collection of content providers. Order is
// significant only for reproducibility of iteration; the model treats the
// set symmetrically.
type Population []CP

// Validate reports the first invalid CP, or nil.
func (p Population) Validate() error {
	for i := range p {
		if err := p[i].Validate(); err != nil {
			return fmt.Errorf("index %d: %w", i, err)
		}
	}
	return nil
}

// TotalUnconstrainedPerCapita returns Σ_i α_i·θ̂_i, the per-capita capacity ν
// at which the link stops being a bottleneck (the saturation point of
// Theorem 2).
func (p Population) TotalUnconstrainedPerCapita() float64 {
	var sum float64
	for i := range p {
		sum += p[i].UnconstrainedPerCapitaRate()
	}
	return sum
}

// MaxThetaHat returns the largest unconstrained per-user throughput in the
// population, the upper end of any water-filling search. It returns 0 for an
// empty population.
func (p Population) MaxThetaHat() float64 {
	var m float64
	for i := range p {
		if p[i].ThetaHat > m {
			m = p[i].ThetaHat
		}
	}
	return m
}

// Names returns the CP names in order.
func (p Population) Names() []string {
	out := make([]string, len(p))
	for i := range p {
		out[i] = p[i].Name
	}
	return out
}
