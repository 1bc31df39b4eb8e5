package core

import (
	"fmt"

	"github.com/netecon-sim/publicoption/internal/traffic"
)

// Regime identifies one of the regulatory/market arrangements the paper
// compares (§III Regulatory Implications, §IV-A, §VI): the monopoly left
// alone, the two partial regulations the paper proposes as remedies, full
// network-neutrality regulation, and the non-regulatory Public Option.
type Regime int

const (
	// RegimeUnregulated is the monopolist playing its revenue-optimal
	// strategy (Theorem 4 territory: κ = 1 and a possibly
	// capacity-wasting price).
	RegimeUnregulated Regime = iota
	// RegimeKappaCap lets the monopolist optimize subject to κ ≤ cap — the
	// paper's first proposed limit ("κ cannot be too large, such that the
	// CPs in the ordinary class can obtain an appropriate amount of
	// capacity").
	RegimeKappaCap
	// RegimePriceCap lets the monopolist optimize subject to c ≤ cap — the
	// paper's second proposed limit ("limit the charge c so that enough
	// CPs would be able to join the premium class").
	RegimePriceCap
	// RegimeNeutral forces the network-neutral strategy (0, 0): one free
	// class, no differentiation.
	RegimeNeutral
	// RegimePublicOption splits the capacity with a Public Option ISP and
	// lets the incumbent best-respond for market share (§IV-A; Theorem 5
	// aligns that with consumer surplus).
	RegimePublicOption
)

// String implements fmt.Stringer.
func (r Regime) String() string {
	switch r {
	case RegimeUnregulated:
		return "unregulated"
	case RegimeKappaCap:
		return "kappa-cap"
	case RegimePriceCap:
		return "price-cap"
	case RegimeNeutral:
		return "neutral"
	case RegimePublicOption:
		return "public-option"
	default:
		return fmt.Sprintf("Regime(%d)", int(r))
	}
}

// RegimeOutcome is the consumer and ISP surplus a regime delivers on a
// fixed workload and capacity.
type RegimeOutcome struct {
	Regime   Regime
	Strategy Strategy // the strategy the incumbent ends up playing
	Phi      float64  // per-capita consumer surplus
	Psi      float64  // per-capita incumbent revenue (market-wide)
	Share    float64  // incumbent market share (1 except under the Public Option)
	Detail   string   // regime-specific annotation
	// Market is the solved market structure the regime implies: the
	// monopolist alone (named after the regime, share 1), or the incumbent
	// and the Public Option.
	Market *MarketOutcome
}

// RegimeConfig parameterizes CompareRegimes and SolveRegime.
type RegimeConfig struct {
	KappaCap float64 // κ ceiling for RegimeKappaCap (default 0.5)
	PriceCap float64 // c ceiling for RegimePriceCap (default 0.3)
	POShare  float64 // Public Option capacity share (default 0.5)
	CHi      float64 // price search ceiling (default 1)
	GridN    int     // optimizer grid resolution (default 40)
	// POGrid is the strategy grid the incumbent searches against the
	// Public Option; nil uses DefaultStrategyGrid.
	POGrid *StrategyGrid
}

func (c *RegimeConfig) setDefaults() {
	if c.KappaCap <= 0 || c.KappaCap > 1 {
		c.KappaCap = 0.5
	}
	if c.PriceCap <= 0 {
		c.PriceCap = 0.3
	}
	if c.POShare <= 0 || c.POShare >= 1 {
		c.POShare = 0.5
	}
	if c.CHi <= 0 {
		c.CHi = 1
	}
	if c.GridN <= 0 {
		c.GridN = 40
	}
}

// CompareRegimes evaluates every regulatory regime on the same population
// and per-capita capacity, producing the paper's headline comparison: in a
// monopolistic market, consumer surplus should rank
//
//	Public Option ≥ neutral regulation ≥ partial caps ≥ unregulated
//
// (Theorem 5 and the §III/§VI discussion; the caps land between the
// extremes depending on how tight they are). Results come back in the
// regime order above's reverse — unregulated first — so tables read in
// increasing intervention.
func CompareRegimes(solver *Solver, nu float64, pop traffic.Population, cfg RegimeConfig) []RegimeOutcome {
	mono := NewMonopoly(solver)
	out := make([]RegimeOutcome, 0, 5)
	for r := RegimeUnregulated; r <= RegimePublicOption; r++ {
		out = append(out, SolveRegime(mono, r, nu, pop, cfg))
	}
	return out
}

// SolveRegime solves one regime at per-capita capacity ν on the caller's
// monopoly analyzer, whose Solver also solves the neutral class game and the
// Public Option market. A caller that sweeps one regime across capacities
// on one analyzer keeps its warm starts from point to point.
func SolveRegime(mono *Monopoly, r Regime, nu float64, pop traffic.Population, cfg RegimeConfig) RegimeOutcome {
	cfg.setDefaults()
	monopolist := func(s Strategy, eq *ClassEquilibrium, psi float64, detail string) RegimeOutcome {
		return RegimeOutcome{
			Regime: r, Strategy: s, Phi: eq.Phi(), Psi: psi, Share: 1, Detail: detail,
			Market: &MarketOutcome{
				ISPs:  []ISP{{Name: r.String(), Gamma: 1, Strategy: s}},
				NuBar: nu, Shares: []float64{1}, Eqs: []*ClassEquilibrium{eq}, Phi: eq.Phi(),
			},
		}
	}
	switch r {
	case RegimeUnregulated:
		// Revenue-optimal (κ, c).
		s, eq := mono.OptimalStrategy(cfg.CHi, nu, pop, 10, cfg.GridN)
		return monopolist(s, eq, eq.Psi(), fmt.Sprintf("utilization %.0f%%", 100*eq.Utilization()))
	case RegimeKappaCap:
		// Optimize c at the cap (revenue is monotone in κ, Theorem 4, so
		// the cap binds).
		c, eq := mono.OptimalPrice(cfg.KappaCap, cfg.CHi, nu, pop, cfg.GridN)
		return monopolist(Strategy{Kappa: cfg.KappaCap, C: c}, eq, eq.Psi(), fmt.Sprintf("κ ≤ %.2g", cfg.KappaCap))
	case RegimePriceCap:
		// κ = 1 (dominant), c at most the cap; revenue is increasing in c
		// on the capped range or peaks inside it.
		c, eq := mono.OptimalPrice(1, cfg.PriceCap, nu, pop, cfg.GridN)
		return monopolist(Strategy{Kappa: 1, C: c}, eq, eq.Psi(), fmt.Sprintf("c ≤ %.2g", cfg.PriceCap))
	case RegimeNeutral:
		// Full neutrality: single free class.
		return monopolist(PublicOption, mono.Solver.Competitive(PublicOption, nu, pop), 0, "")
	case RegimePublicOption:
		// The incumbent holds 1−POShare of capacity and best-responds for
		// market share.
		grid := DefaultStrategyGrid()
		if cfg.POGrid != nil {
			grid = *cfg.POGrid
		}
		mk := NewMarket(mono.Solver, pop, nu)
		mk.MigrationTol = 1e-6
		isps := []ISP{
			{Name: "incumbent", Gamma: 1 - cfg.POShare, Strategy: Strategy{Kappa: 1, C: 0.5}},
			{Name: "public-option", Gamma: cfg.POShare, Strategy: PublicOption},
		}
		s, o, _ := mk.BestResponse(isps, 0, grid)
		return RegimeOutcome{
			Regime: r, Strategy: s,
			Phi: o.Phi, Psi: o.Eqs[0].Psi() * o.Shares[0], Share: o.Shares[0],
			Detail: fmt.Sprintf("PO holds γ=%.2g", cfg.POShare),
			Market: o,
		}
	}
	panic(fmt.Sprintf("core: unknown %v", r))
}

// RegimeRanking extracts the regimes ordered by descending consumer
// surplus; ties (within tol) preserve the intervention order.
func RegimeRanking(outcomes []RegimeOutcome, tol float64) []Regime {
	ranked := append([]RegimeOutcome(nil), outcomes...)
	// Insertion sort (stable, tiny slice).
	for i := 1; i < len(ranked); i++ {
		for j := i; j > 0 && ranked[j].Phi > ranked[j-1].Phi+tol; j-- {
			ranked[j], ranked[j-1] = ranked[j-1], ranked[j]
		}
	}
	order := make([]Regime, len(ranked))
	for i, r := range ranked {
		order[i] = r.Regime
	}
	return order
}

// indexOf returns the position of regime r in the ranking, or -1.
func indexOf(order []Regime, r Regime) int {
	for i, x := range order {
		if x == r {
			return i
		}
	}
	return -1
}

// CheckHeadlineRanking verifies the paper's monopoly-market claim on a
// ranking: the Public Option must not be ranked below neutral regulation,
// and neutral regulation must not be ranked below the unregulated monopoly.
// It returns nil when the claim holds.
func CheckHeadlineRanking(order []Regime) error {
	po := indexOf(order, RegimePublicOption)
	ne := indexOf(order, RegimeNeutral)
	un := indexOf(order, RegimeUnregulated)
	if po < 0 || ne < 0 || un < 0 {
		return fmt.Errorf("core: ranking missing a headline regime: %v", order)
	}
	if po > ne {
		return fmt.Errorf("core: Public Option ranked below neutral regulation: %v", order)
	}
	if ne > un {
		return fmt.Errorf("core: neutral regulation ranked below unregulated monopoly: %v", order)
	}
	return nil
}
