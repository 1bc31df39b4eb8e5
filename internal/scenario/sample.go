package scenario

import (
	"fmt"

	"github.com/netecon-sim/publicoption/internal/alloc"
	"github.com/netecon-sim/publicoption/internal/core"
	"github.com/netecon-sim/publicoption/internal/sweep"
)

// SampleOptions controls equilibrium sampling (SampleEquilibria).
type SampleOptions struct {
	// MaxCells bounds how many sweep positions are solved; 0 means 3. The
	// subset is a deterministic function of (cell count, MaxCells, Seed).
	MaxCells int
	// Seed drives the cell subsample; 0 means 1.
	Seed uint64
}

// LinkEquilibrium is one bottleneck-link rate equilibrium inside a solved
// scenario cell: a provider's ordinary or premium class, with the fluid
// per-capita equilibrium (alloc.Result) that class settled into. It is the
// replayable unit of packet-level validation — everything a simulator needs
// (class capacity ν, sub-population, θ profile) in one detached value.
type LinkEquilibrium struct {
	// Scenario is the scenario name, Cell the sweep position it was solved
	// at ("nu=2000" or "poshare=0.3,nu=0.132").
	Scenario string
	Cell     string
	// Provider labels the link's owner: the ISP name, the regime name for
	// regulation scenarios, or regime:isp for the public-option regime.
	Provider string
	// Class is "ordinary" or "premium".
	Class string
	// Share is the provider's consumer market share at this cell.
	Share float64
	// Eq is the class rate equilibrium, cloned and detached from all solver
	// state. Its Nu is the class per-capita capacity over the provider's
	// subscribers; Pop is the class sub-population.
	Eq *alloc.Result
}

// Link renders the provider/class label used in reports.
func (l *LinkEquilibrium) Link() string { return l.Provider + "/" + l.Class }

// SampleEquilibria solves a deterministic subsample of the scenario's sweep
// cells and returns every non-empty class equilibrium found there — the
// equilibrium sampling hook behind internal/validate and `pubopt validate`.
//
// All scenario shapes that keep per-CP equilibria are supported: 1-D
// sweeps, 2-D grids, best-response and rebate games, and regime
// comparisons (each listed regime contributes its own links per sampled
// capacity). Batched populations are rejected: their streaming water-fill
// never materializes a per-CP equilibrium to replay.
func (s *Scenario) SampleEquilibria(opt SampleOptions) ([]LinkEquilibrium, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if s.Population.Batch > 0 {
		return nil, fmt.Errorf("scenario %q: batched populations stream their water-fill and keep no per-CP equilibrium to sample", s.Name)
	}
	if s.IsDynamic() {
		return nil, fmt.Errorf("scenario %q: dynamics simulations have per-tick equilibria, not sweep cells; there is nothing static to sample", s.Name)
	}
	maxCells := opt.MaxCells
	if maxCells <= 0 {
		maxCells = 3
	}
	seed := opt.Seed
	if seed == 0 {
		seed = 1
	}
	job, err := s.compile()
	if err != nil {
		return nil, err
	}
	picked := sweep.SampleIndices(job.Cells(), maxCells, seed)
	label := func(row, col int) string {
		l := fmt.Sprintf("%s=%.6g", job.XAxis, job.Xs[col])
		if job.YAxis != "" {
			l += fmt.Sprintf(",%s=%.6g", job.YAxis, job.Ys[row])
		}
		return l
	}

	var out []LinkEquilibrium
	emit := func(cell, name string, share float64, eq *core.ClassEquilibrium) {
		if eq == nil {
			return
		}
		for _, cl := range []struct {
			name string
			res  *alloc.Result
		}{{"ordinary", eq.Ordinary}, {"premium", eq.Premium}} {
			if cl.res == nil || len(cl.res.Pop) == 0 || !(cl.res.Nu > 0) {
				continue // empty class, or a zero-capacity class (κ = 0 or 1)
			}
			out = append(out, LinkEquilibrium{
				Scenario: s.Name, Cell: cell, Provider: name,
				Class: cl.name, Share: share, Eq: cl.res.Clone(),
			})
		}
	}

	if s.Regulation != nil {
		// One warm analyzer per regime, capacities in ascending order — the
		// same traversal shape as runRegimes. Regime sweeps are 1-D, so the
		// picked cell index is the column.
		rc := s.Regulation.withDefaults()
		for _, regime := range rc.Regimes {
			mono := core.NewMonopoly(nil)
			for _, col := range picked {
				m := rc.solve(mono, regime, job.Xs[col], job.pop).Market
				for k, isp := range m.ISPs {
					name := regime
					if len(m.ISPs) > 1 {
						name += ":" + isp.Name
					}
					emit(label(0, col), name, m.Shares[k], m.Eqs[k])
				}
			}
		}
		return out, nil
	}

	// The picked cells through the grid executor's pooled workers: each
	// cell's equilibria are the ones RunGrid solves at its coordinates.
	// They live in the worker's outcome buffer, which its next cell
	// overwrites, so each is cloned before the worker moves on.
	eqs := make([][]providerEq, len(picked))
	job.each(nil, RunOptions{}.workers(), len(picked), func(w *GridWorker, k int) {
		row, col := picked[k]/len(job.Xs), picked[k]%len(job.Xs)
		_, eqs[k] = w.solve(job.Xs[col], job.Ys[row])
		for i := range eqs[k] {
			if eqs[k][i].eq != nil {
				eqs[k][i].eq = eqs[k][i].eq.Clone()
			}
		}
	})
	for k, ci := range picked {
		for _, pe := range eqs[k] {
			emit(label(ci/len(job.Xs), ci%len(job.Xs)), pe.name, pe.share, pe.eq)
		}
	}
	return out, nil
}
