package core

import (
	"math"

	"github.com/netecon-sim/publicoption/internal/numeric"
)

// StrategyGrid enumerates candidate strategies for best-response searches:
// the cartesian product of the κ and c sample points.
type StrategyGrid struct {
	Kappas []float64
	Cs     []float64
}

// DefaultStrategyGrid covers the strategy box the paper explores: κ from
// neutral to full premium, c across the CP revenue range [0, 1].
func DefaultStrategyGrid() StrategyGrid {
	return StrategyGrid{
		Kappas: []float64{0, 0.2, 0.4, 0.6, 0.8, 1},
		Cs:     numeric.Linspace(0, 1, 21),
	}
}

// Strategies materializes the grid.
func (g StrategyGrid) Strategies() []Strategy {
	out := make([]Strategy, 0, len(g.Kappas)*len(g.Cs))
	for _, k := range g.Kappas {
		for _, c := range g.Cs {
			out = append(out, Strategy{Kappa: k, C: c})
		}
	}
	return out
}

// BestResponse finds, over the strategy grid, ISP `who`'s market-share
// maximizing strategy against the fixed strategies of the other ISPs
// (Theorem 6's object). It returns the best strategy, the outcome under it,
// and the share it achieves. Ties prefer earlier grid entries, and hence —
// with DefaultStrategyGrid's ordering — more neutral strategies.
func (mk *Market) BestResponse(isps []ISP, who int, grid StrategyGrid) (Strategy, *MarketOutcome, float64) {
	return mk.BestResponseInto(new(MarketOutcome), new(MarketOutcome), isps, who, grid)
}

// BestResponseInto is BestResponse solving every candidate into a or b,
// whose buffers the caller owns and may reuse from call to call, as
// SolveInto's. The returned outcome is one of the two; it is valid until
// the next solve into either.
func (mk *Market) BestResponseInto(a, b *MarketOutcome, isps []ISP, who int, grid StrategyGrid) (Strategy, *MarketOutcome, float64) {
	return mk.bestResponse(a, b, isps, who, grid, func(o *MarketOutcome) float64 { return o.Shares[who] })
}

// BestResponseForSurplus is BestResponse with the consumer-surplus objective
// Φ instead of market share — the comparison object of Theorem 6.
func (mk *Market) BestResponseForSurplus(isps []ISP, who int, grid StrategyGrid) (Strategy, *MarketOutcome, float64) {
	return mk.bestResponse(new(MarketOutcome), new(MarketOutcome), isps, who, grid, func(o *MarketOutcome) float64 { return o.Phi })
}

// bestResponse maximizes objective over ISP who's grid strategies. Each
// candidate is solved into the one of a and b that does not hold the best
// so far, so the search retains only the best candidate's equilibria.
func (mk *Market) bestResponse(a, b *MarketOutcome, isps []ISP, who int, grid StrategyGrid, objective func(*MarketOutcome) float64) (Strategy, *MarketOutcome, float64) {
	var (
		bestS     Strategy
		bestOut   *MarketOutcome
		bestValue = math.Inf(-1)
		outs      = [2]*MarketOutcome{a, b}
		next      int // the outcome the next candidate is solved into
	)
	cand := append([]ISP(nil), isps...)
	for _, s := range grid.Strategies() {
		cand[who].Strategy = s
		out := mk.SolveInto(outs[next], cand)
		if v := objective(out); v > bestValue+1e-12 {
			bestS, bestOut, bestValue = s, out, v
			next = 1 - next
		}
	}
	return bestS, bestOut, bestValue
}
