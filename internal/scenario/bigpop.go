package scenario

import (
	"math"

	"github.com/netecon-sim/publicoption/internal/numeric"
	"github.com/netecon-sim/publicoption/internal/sweep"
	"github.com/netecon-sim/publicoption/internal/traffic"
)

// Batched populations: the large-N path. A 10⁶-CP traffic.Population costs
// hundreds of bytes per CP (name string, demand interface); the batched
// representation keeps only the four scalars the neutral water-fill needs,
// packed in struct-of-arrays batches (32 B/CP), and generates them one
// batch at a time so the peak overhead is a single batch of full CP records.
//
// The neutral (single free class) equilibrium is exactly the max-min rate
// equilibrium of Theorem 1: find the water level τ with
// Σ_i α_i·d_i(min(τ,θ̂_i))·min(τ,θ̂_i) = min(ν, Σ α_i θ̂_i). The aggregate is
// a sum of per-CP terms, so it is evaluated batch-by-batch — and in parallel
// across batches — without ever holding per-CP equilibrium state.

// popBatch is one compact batch of the ensemble. Demand is the paper's
// exponential family (the only family the random ensembles draw).
type popBatch struct {
	alpha, thetaHat, phi, beta []float64
}

// rho returns d(θ)·θ at water level tau for CP i of the batch.
func (b *popBatch) rho(i int, tau float64) float64 {
	th := b.thetaHat[i]
	if tau >= th {
		return th // d(θ̂) = 1
	}
	if tau <= 0 {
		return 0
	}
	omega := tau / th
	return math.Exp(-b.beta[i]*(1/omega-1)) * tau
}

// batchedPop is a CP ensemble materialized as compact batches.
type batchedPop struct {
	batches     []popBatch
	saturation  float64 // Σ α_i·θ̂_i
	maxThetaHat float64
	maxPhi      float64 // Σ φ_i·α_i·θ̂_i
}

// newBatchedPop generates the ensemble batch-by-batch. Batch b draws from
// seed+b, so the population is reproducible for a given (seed, batch size)
// and batches are independent streams.
func newBatchedPop(cfg traffic.EnsembleConfig, seed uint64, batchSize int) *batchedPop {
	total := cfg.N
	bp := &batchedPop{}
	for off, b := 0, 0; off < total; off, b = off+batchSize, b+1 {
		n := batchSize
		if total-off < n {
			n = total - off
		}
		gcfg := cfg
		gcfg.N = n
		pop := gcfg.Generate(numeric.NewRNG(seed + uint64(b)))
		batch := popBatch{
			alpha:    make([]float64, n),
			thetaHat: make([]float64, n),
			phi:      make([]float64, n),
			beta:     make([]float64, n),
		}
		for i := range pop {
			batch.alpha[i] = pop[i].Alpha
			batch.thetaHat[i] = pop[i].ThetaHat
			batch.phi[i] = pop[i].Phi
			beta, ok := pop[i].Beta()
			if !ok {
				panic("scenario: batched ensembles draw exponential demand only")
			}
			batch.beta[i] = beta
			bp.saturation += pop[i].Alpha * pop[i].ThetaHat
			bp.maxPhi += pop[i].Phi * pop[i].Alpha * pop[i].ThetaHat
			if pop[i].ThetaHat > bp.maxThetaHat {
				bp.maxThetaHat = pop[i].ThetaHat
			}
		}
		bp.batches = append(bp.batches, batch)
	}
	return bp
}

// materializeBatched rebuilds the exact batched population as a full
// traffic.Population — the reference object batched evaluation must agree
// with. Intended for tests and small N.
func (p *PopulationSpec) materializeBatched() (traffic.Population, error) {
	cfg := p.ensembleConfig()
	total := cfg.N
	var pop traffic.Population
	for off, b := 0, 0; off < total; off, b = off+p.Batch, b+1 {
		gcfg := cfg
		gcfg.N = min(p.Batch, total-off)
		pop = append(pop, gcfg.Generate(numeric.NewRNG(p.seed()+uint64(b)))...)
	}
	return pop, nil
}

// aggregates returns the per-capita aggregate rate Σ α_i·ρ_i(τ) and the
// consumer surplus Σ φ_i·α_i·ρ_i(τ) at water level tau, evaluated in
// parallel across batches on up to workers goroutines.
func (bp *batchedPop) aggregates(tau float64, workers int) (rate, phi float64) {
	rates := make([]float64, len(bp.batches))
	phis := make([]float64, len(bp.batches))
	sweep.RunRows(workers, len(bp.batches), func(_, b int) {
		batch := &bp.batches[b]
		var r, p float64
		for i := range batch.alpha {
			ar := batch.alpha[i] * batch.rho(i, tau)
			r += ar
			p += batch.phi[i] * ar
		}
		rates[b], phis[b] = r, p
	})
	return numeric.Sum(rates), numeric.Sum(phis)
}

// neutralPoint is the batched neutral equilibrium at per-capita capacity nu:
// water level, consumer surplus Φ and utilization. tauLo warm-starts the
// bisection from the previous (smaller) capacity's level — Axiom 3
// guarantees the level is non-decreasing in ν.
func (bp *batchedPop) neutralPoint(nu, tauLo float64, workers int) (tau, phi, util float64) {
	if nu >= bp.saturation {
		// The link stops being a bottleneck: everyone unconstrained.
		return bp.maxThetaHat, bp.maxPhi, bp.saturation / nu
	}
	target := nu
	f := func(t float64) float64 {
		r, _ := bp.aggregates(t, workers)
		return r - target
	}
	tol := 1e-12 * math.Max(bp.maxThetaHat, 1)
	tau = numeric.Bisect(f, tauLo, bp.maxThetaHat, tol)
	rate, phi := bp.aggregates(tau, workers)
	return tau, phi, rate / nu
}
