package traffic

import (
	"fmt"
	"strconv"

	"github.com/netecon-sim/publicoption/internal/demand"
	"github.com/netecon-sim/publicoption/internal/numeric"
)

// PhiSetting selects how the per-unit-traffic consumer utility φ_i is drawn
// in the random ensembles of §III-E and the appendix.
type PhiSetting int

const (
	// PhiCorrelated is the main-text setting: φ_i ~ U[0, β_i], biasing
	// utility toward throughput-sensitive CPs ("throughput-sensitive
	// applications, e.g. Skype, bring more utility to consumers").
	PhiCorrelated PhiSetting = iota
	// PhiIndependent is the appendix setting: φ_i ~ U[0, U[0, 10]], the same
	// scale but independent of β_i (Figures 9–12).
	PhiIndependent
)

// String implements fmt.Stringer.
func (s PhiSetting) String() string {
	switch s {
	case PhiCorrelated:
		return "phi~U[0,beta]"
	case PhiIndependent:
		return "phi~U[0,U[0,10]]"
	default:
		return fmt.Sprintf("PhiSetting(%d)", int(s))
	}
}

// EnsembleConfig parameterizes the random CP populations of the paper's
// evaluation. The zero value is not useful; use PaperEnsemble for the
// published configuration.
type EnsembleConfig struct {
	N          int        // number of CPs
	AlphaHi    float64    // α ~ U(0, AlphaHi]
	ThetaHatHi float64    // θ̂ ~ U(0, ThetaHatHi]
	VHi        float64    // v ~ U[0, VHi]
	BetaHi     float64    // β ~ U[0, BetaHi]
	Phi        PhiSetting // utility model
}

// PaperEnsemble is the configuration of §III-E: 1000 CPs with α, θ̂, v
// uniform on [0,1] and β uniform on [0,10]. At this configuration the
// expected total unconstrained per-capita throughput is N·E[α]·E[θ̂] = 250,
// the paper's "ν needs to be around 250 to satisfy all unconstrained
// throughput".
func PaperEnsemble(phi PhiSetting) EnsembleConfig {
	return EnsembleConfig{
		N:          1000,
		AlphaHi:    1,
		ThetaHatHi: 1,
		VHi:        1,
		BetaHi:     10,
		Phi:        phi,
	}
}

// Generate draws a random population from the configuration using rng. The
// draw order per CP is fixed (α, θ̂, v, β, then φ) so a given seed always
// produces the same population regardless of the utility setting's internal
// draws.
func (cfg EnsembleConfig) Generate(rng *numeric.RNG) Population {
	if cfg.N <= 0 {
		panic("traffic: ensemble size must be positive")
	}
	pop := make(Population, cfg.N)
	for i := range pop {
		alpha := rng.UniformOpen(0, cfg.AlphaHi)
		thetaHat := rng.UniformOpen(0, cfg.ThetaHatHi)
		v := rng.Uniform(0, cfg.VHi)
		beta := rng.Uniform(0, cfg.BetaHi)
		var phi float64
		switch cfg.Phi {
		case PhiCorrelated:
			phi = rng.Uniform(0, beta)
		case PhiIndependent:
			phi = rng.Uniform(0, rng.Uniform(0, 10))
		default:
			panic(fmt.Sprintf("traffic: unknown phi setting %v", cfg.Phi))
		}
		pop[i] = CP{
			Name:     CPName(i),
			Alpha:    alpha,
			ThetaHat: thetaHat,
			V:        v,
			Phi:      phi,
			Curve:    demand.Exponential{Beta: beta},
		}
	}
	return pop
}

// CPName is the default name of a population's i-th CP: "cp-" and i
// zero-padded to four digits, the string fmt.Sprintf("cp-%04d", i) gives,
// built without fmt because an ensemble names every one of its CPs.
func CPName(i int) string {
	var buf [24]byte
	b := append(buf[:0], "cp-"...)
	for pad := 1000; pad > 1 && i < pad; pad /= 10 {
		b = append(b, '0')
	}
	return string(strconv.AppendInt(b, int64(i), 10))
}

// DefaultSeed is the seed used by all published experiments in this
// repository. Change it (or pass your own RNG) to study seed sensitivity.
const DefaultSeed = 20111206 // CoNEXT 2011 started December 6, 2011.

// PaperPopulation returns the deterministic 1000-CP population used by the
// figure reproductions, under the given φ setting. Both settings share the
// same (α, θ̂, v, β) draws — as in the paper's appendix, "the characteristics
// of the CPs are the same as our previous experiments" — because the φ draw
// happens after the four characteristic draws and consumes fresh randomness.
func PaperPopulation(phi PhiSetting) Population {
	// Use a dedicated sub-stream per setting so the shared draws coincide:
	// generate characteristics first, then overwrite φ.
	rng := numeric.NewRNG(DefaultSeed)
	base := PaperEnsemble(PhiCorrelated).Generate(rng)
	if phi == PhiCorrelated {
		return base
	}
	RedrawPhiIndependent(base, DefaultSeed+1)
	return base
}

// RedrawPhiIndependent overwrites every CP's φ with the appendix's
// independent draw φ ~ U[0, U[0,10]], consuming a dedicated RNG stream
// seeded with seed so the CP characteristics (drawn elsewhere) are
// untouched. PaperPopulation and the scenario engine share this convention;
// change it here and both stay in lockstep.
func RedrawPhiIndependent(pop Population, seed uint64) {
	phiRNG := numeric.NewRNG(seed)
	for i := range pop {
		pop[i].Phi = phiRNG.Uniform(0, phiRNG.Uniform(0, 10))
	}
}
