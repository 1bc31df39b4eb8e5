package scenario

import (
	"bytes"
	"fmt"
	"sort"
)

// The built-in registry: the paper's market figures (paperFigures), the
// headline regime comparison, and one named scenario per figure regime,
// plus market structures from the related literature — public-option entry
// under consumer rebates, asymmetric duopoly, a large-N oligopoly over a
// batched 10⁵-CP ensemble, and 2-D grid scenarios (γ×ν sizing, σ×ν
// rebates, c×κ strategy maps) for the region-shaped questions the welfare
// literature studies.
//
// Built-ins declare capacity as fractions of the population's saturation
// Σ α_i·θ̂_i (OfSaturation) wherever the population is random, so editing the
// ensemble rescales the sweep automatically; the archetype scenario uses the
// paper's absolute Kbps axis.

var builtins = []*Scenario{
	{
		Name:  "neutral-baseline",
		Title: "Neutral monopoly: consumer surplus vs capacity",
		Description: "A single network-neutral ISP (strategy (0,0)) serving the paper's " +
			"1000-CP ensemble. Φ(ν) is strictly increasing until capacity covers all " +
			"unconstrained demand, then flat — the shape Theorem 2 proves.",
		Reference:  "Ma & Misra §II-C, Theorem 2; baseline for Figures 4-5",
		Population: PopulationSpec{Kind: "paper"},
		Providers:  []ProviderSpec{{Name: "neutral", Gamma: 1}},
		Sweep: SweepSpec{
			Axis: AxisNu, Lo: 0.1, Hi: 1.2, Points: 12, OfSaturation: true,
			Metrics: []string{MetricPhi, MetricUtilization},
		},
	},
	{
		Name:  "archetypes-capacity",
		Title: "Google/Netflix/Skype archetypes: demand saturation vs capacity (Kbps)",
		Description: "The three §II-D archetype CPs under a neutral ISP on the paper's " +
			"absolute Kbps axis. Google-type demand saturates first, then Skype-type, " +
			"Netflix-type last — the Figure 3 ordering.",
		Reference:  "Ma & Misra §II-D, Figure 3",
		Population: PopulationSpec{Kind: "archetypes"},
		Providers:  []ProviderSpec{{Name: "neutral", Gamma: 1}},
		Sweep: SweepSpec{
			Axis: AxisNu, Values: []float64{250, 500, 1000, 2000, 3000, 4000, 5000, 5500},
			Metrics: []string{MetricPhi, MetricUtilization},
		},
	},
	{
		Name:  "monopoly-price-sweep",
		Title: "Monopoly premium pricing: revenue and consumer surplus vs price",
		Description: "A monopolist with all capacity premium (κ=1) sweeps the premium " +
			"price c. Revenue Ψ peaks at an interior price while consumer surplus Φ " +
			"falls — the §III conflict that motivates regulation or a Public Option.",
		Reference:  "Ma & Misra §III, Figure 4",
		Population: PopulationSpec{Kind: "paper"},
		Providers:  []ProviderSpec{{Name: "monopolist", Gamma: 1, Kappa: 1}},
		Sweep: SweepSpec{
			Axis: AxisPrice, Lo: 0, Hi: 1, Points: 21, Nu: 0.4, OfSaturation: true,
			Metrics: []string{MetricPhi, MetricPsi, MetricUtilization},
		},
	},
	{
		Name:  "monopoly-capacity",
		Title: "Monopoly under fixed pricing: surplus vs capacity",
		Description: "The monopolist holds (κ=1, c=0.4) while per-capita capacity grows. " +
			"Past a point, extra capacity feeds the premium class only through demand the " +
			"price suppresses — utilization and consumer surplus stall below the neutral " +
			"benchmark (compare neutral-baseline).",
		Reference:  "Ma & Misra §III-E, Figure 5",
		Population: PopulationSpec{Kind: "paper"},
		Providers:  []ProviderSpec{{Name: "monopolist", Gamma: 1, Kappa: 1, C: 0.4}},
		Sweep: SweepSpec{
			Axis: AxisNu, Lo: 0.1, Hi: 1.2, Points: 12, OfSaturation: true,
			Metrics: []string{MetricPhi, MetricPsi, MetricUtilization},
		},
	},
	{
		Name:  "monopoly-phi-independent",
		Title: "Monopoly pricing when consumer utility is independent of sensitivity",
		Description: "The appendix robustness check: φ drawn independently of β instead " +
			"of correlated. The qualitative pricing conflict of monopoly-price-sweep " +
			"survives the change of utility model.",
		Reference:  "Ma & Misra appendix, Figures 9-10",
		Population: PopulationSpec{Kind: "paper", Phi: "independent"},
		Providers:  []ProviderSpec{{Name: "monopolist", Gamma: 1, Kappa: 1}},
		Sweep: SweepSpec{
			Axis: AxisPrice, Lo: 0, Hi: 1, Points: 21, Nu: 0.4, OfSaturation: true,
			Metrics: []string{MetricPhi, MetricPsi},
		},
	},
	{
		Name:  "public-option-duopoly",
		Title: "Strategic incumbent vs Public Option: shares and surplus vs price",
		Description: "An incumbent with κ=1 sweeps its premium price against a " +
			"Public Option of equal capacity. Overpricing sends consumers to the " +
			"neutral entrant — chasing market share disciplines the incumbent " +
			"without regulation (Theorem 5).",
		Reference:  "Ma & Misra §IV-A, Figures 7-8, Theorem 5",
		Population: PopulationSpec{Kind: "paper"},
		Providers: []ProviderSpec{
			{Name: "incumbent", Gamma: 0.5, Kappa: 1},
			{Name: "public-option", Gamma: 0.5, PublicOption: true},
		},
		Sweep: SweepSpec{
			Axis: AxisPrice, Lo: 0, Hi: 1, Points: 11, Nu: 0.4, OfSaturation: true,
			Metrics: []string{MetricPhi, MetricPsi, MetricShare},
		},
	},
	{
		Name:  "public-option-sizing",
		Title: "How much Public Option capacity is enough?",
		Description: "The incumbent plays (κ=1, c=0.4) while the Public Option's " +
			"capacity share γ grows from 5% to 50%. Even a small entrant moves " +
			"market surplus — the §VI sizing question.",
		Reference:  "Ma & Misra §VI; ablation-pubopt-capacity",
		Population: PopulationSpec{Kind: "paper"},
		Providers: []ProviderSpec{
			{Name: "incumbent", Gamma: 0.5, Kappa: 1, C: 0.4},
			{Name: "public-option", Gamma: 0.5, PublicOption: true},
		},
		Sweep: SweepSpec{
			Axis: AxisPOShare, Lo: 0.05, Hi: 0.5, Points: 10, Nu: 0.4, OfSaturation: true,
			Metrics: []string{MetricPhi, MetricShare},
		},
	},
	{
		Name:  "public-option-subsidy",
		Title: "Public Option entry when the incumbent rebates premium revenue",
		Description: "The §VI caveat made quantitative: the incumbent (κ=1, c=0.5) " +
			"rebates a fraction σ of CP-side revenue to subscribers, competing with a " +
			"Public Option on consumer value Φ+σΨ. Rebates buy back share, but the " +
			"regulator's gross-surplus view still favors the entrant — the " +
			"non-neutrality profitability question of the related literature.",
		Reference:  "Ma & Misra §VI; Lotfi et al., non-neutrality profitability",
		Population: PopulationSpec{Kind: "paper"},
		Providers: []ProviderSpec{
			{Name: "incumbent", Gamma: 0.5, Kappa: 1, C: 0.5},
			{Name: "public-option", Gamma: 0.5, PublicOption: true},
		},
		Sweep: SweepSpec{
			Axis: AxisSigma, Lo: 0, Hi: 1, Points: 11, Nu: 0.4, OfSaturation: true,
			Metrics: []string{MetricPhi, MetricShare, MetricPsi},
		},
	},
	{
		Name:  "asymmetric-duopoly",
		Title: "Asymmetric duopoly: a large differentiator vs a small neutral rival",
		Description: "A 70%-capacity incumbent selling priority (κ=1, c=0.5) against a " +
			"30% neutral competitor, across capacities. Market structure — not just " +
			"regulation — decides how much differentiation the market bears, the " +
			"duopoly question the related welfare literature studies.",
		Reference:  "Ma & Misra §IV-B; Chaturvedi et al., welfare under duopoly",
		Population: PopulationSpec{Kind: "ensemble", N: 300, Seed: 7},
		Providers: []ProviderSpec{
			{Name: "incumbent", Gamma: 0.7, Kappa: 1, C: 0.5},
			{Name: "neutral-rival", Gamma: 0.3},
		},
		Sweep: SweepSpec{
			Axis: AxisNu, Lo: 0.15, Hi: 0.9, Points: 8, OfSaturation: true,
			Metrics: []string{MetricPhi, MetricShare},
		},
	},
	{
		Name:  "oligopoly-symmetric",
		Title: "Four-ISP oligopoly with homogeneous strategies (Lemma 4)",
		Description: "Four ISPs with equal strategies (κ=0.5, c=0.3) and capacity shares " +
			"0.4/0.3/0.2/0.1. Under homogeneous strategies market shares track capacity " +
			"shares exactly at every ν — Lemma 4, the investment-incentive result.",
		Reference:  "Ma & Misra §IV-B, Lemma 4",
		Population: PopulationSpec{Kind: "ensemble", N: 300, Seed: 7},
		Providers: []ProviderSpec{
			{Name: "isp-a", Gamma: 0.4, Kappa: 0.5, C: 0.3},
			{Name: "isp-b", Gamma: 0.3, Kappa: 0.5, C: 0.3},
			{Name: "isp-c", Gamma: 0.2, Kappa: 0.5, C: 0.3},
			{Name: "isp-d", Gamma: 0.1, Kappa: 0.5, C: 0.3},
		},
		Sweep: SweepSpec{
			Axis: AxisNu, Lo: 0.2, Hi: 0.8, Points: 6, OfSaturation: true,
			Metrics: []string{MetricPhi, MetricShare},
		},
	},
	{
		Name:  "oligopoly-large-n",
		Title: "Five neutral ISPs serving a 100,000-CP ensemble (batched)",
		Description: "A large-N stress scenario: 10⁵ content providers generated in " +
			"10,000-CP batches, served by five neutral ISPs of unequal capacity. " +
			"Neutral homogeneity makes the equilibrium Lemma 4's: shares equal " +
			"capacity shares and surplus follows the pooled water-fill, evaluated " +
			"batch-parallel without materializing per-CP state.",
		Reference:  "ROADMAP scale goal; Ma & Misra §IV-B, Lemma 4",
		Population: PopulationSpec{Kind: "ensemble", N: 100000, Seed: 42, Batch: 10000},
		Providers: []ProviderSpec{
			{Name: "isp-a", Gamma: 0.3},
			{Name: "isp-b", Gamma: 0.25},
			{Name: "isp-c", Gamma: 0.2},
			{Name: "isp-d", Gamma: 0.15},
			{Name: "isp-e", Gamma: 0.1},
		},
		Sweep: SweepSpec{
			Axis: AxisNu, Lo: 0.1, Hi: 1.2, Points: 12, OfSaturation: true,
			Metrics: []string{MetricPhi, MetricShare, MetricUtilization},
		},
	},
	{
		Name:  "po-sizing-gamma-nu",
		Title: "Public Option sizing: consumer surplus over γ×ν",
		Description: "The paper's central sizing question made two-dimensional: how much " +
			"Public Option capacity share γ disciplines a (κ=1, c=0.4) incumbent, and how " +
			"does the answer move with per-capita capacity ν? Each row is exactly the 1-D " +
			"public-option-sizing sweep at that row's ν; the γ threshold where surplus " +
			"recovers shifts left as capacity scarcity bites harder.",
		Reference:  "Ma & Misra §VI; extends public-option-sizing; Chaturvedi et al., regime maps over 2-D parameter regions",
		Population: PopulationSpec{Kind: "paper"},
		Providers: []ProviderSpec{
			{Name: "incumbent", Gamma: 0.5, Kappa: 1, C: 0.4},
			{Name: "public-option", Gamma: 0.5, PublicOption: true},
		},
		Sweep: SweepSpec{
			Axis: AxisPOShare, Lo: 0.05, Hi: 0.5, Points: 10, OfSaturation: true,
			Metrics: []string{MetricPhi, MetricShare},
			Grid:    &GridSpec{Axis: AxisNu, Values: []float64{0.2, 0.3, 0.4, 0.6}},
		},
	},
	{
		Name:  "po-rebate-sigma-nu",
		Title: "Rebating incumbent vs Public Option: surplus over σ×ν",
		Description: "The §VI caveat as a 2-D map: an incumbent (κ=1, c=0.5) rebates a " +
			"fraction σ of premium revenue to subscribers while per-capita capacity ν " +
			"varies. Shows where rebates buy back enough share to blunt the Public " +
			"Option's discipline — the profitability region the related non-neutrality " +
			"literature characterizes.",
		Reference:  "Ma & Misra §VI; Lotfi et al., non-neutrality profitability regions",
		Population: PopulationSpec{Kind: "paper"},
		Providers: []ProviderSpec{
			{Name: "incumbent", Gamma: 0.5, Kappa: 1, C: 0.5},
			{Name: "public-option", Gamma: 0.5, PublicOption: true},
		},
		Sweep: SweepSpec{
			Axis: AxisSigma, Lo: 0, Hi: 1, Points: 6, OfSaturation: true,
			Metrics: []string{MetricPhi, MetricShare},
			Grid:    &GridSpec{Axis: AxisNu, Values: []float64{0.25, 0.4, 0.6}},
		},
	},
	{
		Name:  "duopoly-price-kappa",
		Title: "Incumbent strategy map vs a Public Option: revenue over c×κ",
		Description: "The incumbent's full strategy space (premium price c × premium " +
			"capacity fraction κ) against an equal-capacity Public Option at fixed ν. " +
			"The revenue layer maps where differentiation pays at all; the share layer " +
			"shows consumers defecting as either lever overreaches (Theorem 5's " +
			"discipline, cell by cell).",
		Reference:  "Ma & Misra §IV-A, Figures 7-8, Theorem 5",
		Population: PopulationSpec{Kind: "paper"},
		Providers: []ProviderSpec{
			{Name: "incumbent", Gamma: 0.5, Kappa: 1, C: 0.5},
			{Name: "public-option", Gamma: 0.5, PublicOption: true},
		},
		Sweep: SweepSpec{
			Axis: AxisPrice, Lo: 0, Hi: 1, Points: 9, Nu: 0.4, OfSaturation: true,
			Metrics: []string{MetricPhi, MetricPsi, MetricShare},
			Grid:    &GridSpec{Axis: AxisKappa, Lo: 0.25, Hi: 1, Points: 4},
		},
	},
	{
		Name:  "regimes-comparison",
		Title: "Consumer surplus by regulatory regime vs capacity",
		Description: "The headline comparison: unregulated monopoly, κ-cap, price-cap, " +
			"full neutrality, and the Public Option on the same population and " +
			"capacities. Expected ranking: Public Option ≥ neutral ≥ caps ≥ " +
			"unregulated (Theorem 5) — the welfare-regulation comparison the related " +
			"literature frames as regimes, here expressed as one scenario.",
		Reference:  "Ma & Misra §III/§VI, Theorem 5; Chaturvedi et al., welfare of neutrality regulation",
		Population: PopulationSpec{Kind: "paper"},
		Regulation: &RegulationSpec{},
		Sweep: SweepSpec{
			Axis: AxisNu, Values: []float64{0.2, 0.4, 0.6, 0.8}, OfSaturation: true,
			Metrics: []string{MetricPhi, MetricPsi},
		},
	},
	{
		Name:  "ablation-pubopt-capacity",
		Title: "Public Option capacity vs a share-maximizing incumbent",
		Description: "At every Public Option share γ the incumbent best-responds for market " +
			"share, at a capacity (0.7 of saturation) where an unregulated monopolist would " +
			"under-utilize it. Even γ ≈ 0.1 disciplines the incumbent: Φ starts near its " +
			"ceiling and stays roughly flat as the Public Option grows — sizing barely " +
			"matters, the §VI claim.",
		Reference:  "Ma & Misra §VI",
		Population: PopulationSpec{Kind: "paper"},
		Providers: []ProviderSpec{
			{Name: "incumbent", Gamma: 0.5, Kappa: 1, C: 0.5, BestResponse: true},
			{Name: "public-option", Gamma: 0.5, PublicOption: true},
		},
		Sweep: SweepSpec{
			Axis: AxisPOShare, Values: []float64{0.05, 0.1, 0.2, 0.3, 0.4, 0.5}, Nu: 0.7, OfSaturation: true,
			Metrics: []string{MetricPhi, MetricShare},
		},
	},
	{
		Name:  "dyn-convergence",
		Title: "Dynamics: inert consumers converge to the Theorem-1 duopoly equilibrium",
		Description: "The public-option-duopoly market run through the reconcile loop with " +
			"fixed strategies, constant traffic, and migration inertia 0.5: shares start at " +
			"capacity shares and contract geometrically onto the static Assumption-5 " +
			"equilibrium. The trajectory limit is pinned to the one-shot solve within 1e-6 " +
			"by the fixed-point test battery.",
		Reference:  "Ma & Misra §IV-A, Theorem 5; docs/DYNAMICS.md",
		Population: PopulationSpec{Kind: "ensemble", N: 160, Seed: 7},
		Providers: []ProviderSpec{
			{Name: "incumbent", Gamma: 0.5, Kappa: 1, C: 0.5},
			{Name: "public-option", Gamma: 0.5, PublicOption: true},
		},
		Dynamics: &DynamicsSpec{Ticks: 48, Inertia: 0.5},
		Sweep: SweepSpec{
			Axis: AxisTime, Nu: 0.4, OfSaturation: true,
			Metrics: []string{MetricPhi, MetricShare},
		},
	},
	{
		Name:  "dyn-oscillation",
		Title: "Dynamics: an overshooting gradient re-pricer limit-cycles around the optimum",
		Description: "A monopolist (κ=1) re-prices by finite-difference gradient ascent on " +
			"premium revenue with a deliberately overshooting gain. Each tick the price " +
			"leaps past the revenue peak and back — a bounded limit cycle, not convergence: " +
			"the canonical failure mode of aggressive reconcile loops.",
		Reference:  "Ma & Misra §III, Figure 4; docs/DYNAMICS.md",
		Population: PopulationSpec{Kind: "ensemble", N: 160, Seed: 7},
		Providers: []ProviderSpec{
			{Name: "monopolist", Gamma: 1, Kappa: 1, C: 0.1},
		},
		Dynamics: &DynamicsSpec{
			Ticks:    40,
			Policies: []PolicySpec{{Kind: PolicyGradient, Step: 0.02, Gain: 0.01}},
		},
		Sweep: SweepSpec{
			Axis: AxisTime, Nu: 0.4, OfSaturation: true,
			Metrics: []string{MetricPhi, MetricPsi},
		},
	},
	{
		Name:  "dyn-demand-shock",
		Title: "Dynamics: a 50% demand surge against a sticky incumbent and an autoscaled Public Option",
		Description: "Traffic steps up 1.5× at tick 15. The incumbent re-prices only when a " +
			"local search finds a revenue gain past its stickiness threshold; the Public " +
			"Option's actuator grows capacity toward an M/M/1 delay target as its " +
			"subscribers' load rises. Watch capacity, shares, and surplus re-equilibrate " +
			"after the shock.",
		Reference:  "ROADMAP adjustment-dynamics question; docs/DYNAMICS.md",
		Population: PopulationSpec{Kind: "ensemble", N: 160, Seed: 7},
		Providers: []ProviderSpec{
			{Name: "incumbent", Gamma: 0.5, Kappa: 1, C: 0.5},
			{Name: "public-option", Gamma: 0.5, PublicOption: true},
		},
		Dynamics: &DynamicsSpec{
			Ticks:   40,
			Inertia: 0.6,
			Traffic: &TrafficSpec{Process: TrafficStep, At: 15, To: 1.5},
			Policies: []PolicySpec{
				{Kind: PolicySticky, Step: 0.05, Threshold: 0.002},
				{Kind: PolicyFixed},
			},
			Autoscale: &AutoscaleSpec{DelayTarget: 0.25},
		},
		Sweep: SweepSpec{
			Axis: AxisTime, Nu: 0.4, OfSaturation: true,
			Metrics: []string{MetricPhi, MetricShare},
		},
	},
	{
		Name:  "dyn-po-entry",
		Title: "Dynamics: a small Public Option entrant autoscales into a disciplining force",
		Description: "The Public Option enters with 5% of capacity against a (κ=1, c=0.6) " +
			"incumbent. Every tick its delay-target actuator adds capacity as subscribers " +
			"arrive (up to 10× its entry size) while consumers migrate with inertia 0.5 — " +
			"the §VI sizing question asked as a trajectory instead of a sweep.",
		Reference:  "Ma & Misra §VI; extends public-option-sizing; docs/DYNAMICS.md",
		Population: PopulationSpec{Kind: "ensemble", N: 160, Seed: 7},
		Providers: []ProviderSpec{
			{Name: "incumbent", Gamma: 0.95, Kappa: 1, C: 0.6},
			{Name: "public-option", Gamma: 0.05, PublicOption: true},
		},
		Dynamics: &DynamicsSpec{
			Ticks:     40,
			Inertia:   0.5,
			Autoscale: &AutoscaleSpec{DelayTarget: 0.2, Max: 10},
		},
		Sweep: SweepSpec{
			Axis: AxisTime, Nu: 0.4, OfSaturation: true,
			Metrics: []string{MetricPhi, MetricShare},
		},
	},
}

// figureNus are the capacities ν ∈ {20, 50, 100, 150, 200} of Figures 4
// and 7 as fractions of the paper ensemble's saturation point ≈ 250.
var figureNus = []float64{0.08, 0.2, 0.4, 0.6, 0.8}

// paperFigures declares the paper's market figures as grids. Figures 4
// and 7 sweep the premium price c at each capacity of figureNus. Figures 5
// and 8 plot nine strategies (κ, c) against ν on [2, 500]/250 of
// saturation; each is three ν×κ grids, one per price c, named fig5-c02 for
// c = 0.2 and so on. The appendix Figures 9–12 repeat them with φ drawn
// independently of β, which leaves every CP decision, and so Ψ and the
// shares, unchanged.
func paperFigures() []*Scenario {
	kappas := []float64{0.2, 0.5, 0.9}
	duopoly := func(c float64) []ProviderSpec {
		return []ProviderSpec{
			{Name: "incumbent", Gamma: 0.5, Kappa: 1, C: c},
			{Name: "public-option", Gamma: 0.5, PublicOption: true},
		}
	}
	var out []*Scenario
	for _, set := range []struct {
		phi, note string
		figs      [4]int // the numbers of Figures 4, 5, 7 and 8 in this set
	}{
		{"", "", [4]int{4, 5, 7, 8}},
		{"independent", ", φ independent of β (appendix)", [4]int{9, 10, 11, 12}},
	} {
		pop := PopulationSpec{Kind: "paper", Phi: set.phi}
		out = append(out, &Scenario{
			Name:  fmt.Sprintf("fig%d", set.figs[0]),
			Title: "Monopoly (κ=1): revenue Ψ and consumer surplus Φ vs price c" + set.note,
			Description: "Three regimes: Ψ = c·ν while the premium class is congested, a " +
				"revenue peak, then collapse as CPs are priced out. At abundant ν the " +
				"revenue-optimal price under-utilizes capacity and hurts Φ.",
			Reference:  fmt.Sprintf("Ma & Misra §III-E, Figure %d", set.figs[0]),
			Population: pop,
			Providers:  []ProviderSpec{{Name: "monopolist", Gamma: 1, Kappa: 1}},
			Sweep: SweepSpec{
				Axis: AxisPrice, Lo: 0, Hi: 1, Points: 101, OfSaturation: true,
				Metrics: []string{MetricPsi, MetricPhi},
				Grid:    &GridSpec{Axis: AxisNu, Values: figureNus},
			},
		}, &Scenario{
			Name:  fmt.Sprintf("fig%d", set.figs[2]),
			Title: "Incumbent (κ=1) vs Public Option: share m_I, revenue Ψ_I and Φ vs price c" + set.note,
			Description: "m_I rises slightly above 1/2 while the premium class stays congested, " +
				"then collapses; Ψ_I drops to zero much more steeply than the monopoly's; " +
				"Φ never falls to zero (the Public Option backstop).",
			Reference:  fmt.Sprintf("Ma & Misra §IV-A, Figure %d", set.figs[2]),
			Population: pop,
			Providers:  duopoly(0),
			Sweep: SweepSpec{
				Axis: AxisPrice, Lo: 0, Hi: 1, Points: 51, OfSaturation: true,
				Metrics: []string{MetricShare, MetricPsi, MetricPhi},
				Grid:    &GridSpec{Axis: AxisNu, Values: figureNus},
			},
		})
		for _, c := range []float64{0.2, 0.5, 0.8} {
			tag := fmt.Sprintf("-c%02.0f", c*10)
			out = append(out, &Scenario{
				Name:  fmt.Sprintf("fig%d%s", set.figs[1], tag),
				Title: fmt.Sprintf("Monopoly at c=%g: Ψ and Φ vs capacity ν for κ ∈ {0.2, 0.5, 0.9}%s", c, set.note),
				Description: "Ψ rises while the premium class is congested, then decays to zero " +
					"as capacity becomes abundant (for small κ); a larger κ holds more revenue " +
					"at the cost of Φ, which grows with ν up to small glitches.",
				Reference:  fmt.Sprintf("Ma & Misra §III-E, Figure %d", set.figs[1]),
				Population: pop,
				Providers:  []ProviderSpec{{Name: "monopolist", Gamma: 1, Kappa: 1, C: c}},
				Sweep: SweepSpec{
					Axis: AxisNu, Lo: 0.008, Hi: 2, Points: 101, OfSaturation: true,
					Metrics: []string{MetricPsi, MetricPhi},
					Grid:    &GridSpec{Axis: AxisKappa, Values: kappas},
				},
			}, &Scenario{
				Name:  fmt.Sprintf("fig%d%s", set.figs[3], tag),
				Title: fmt.Sprintf("Incumbent at c=%g vs Public Option: Ψ_I, Φ and m_I vs ν for κ ∈ {0.2, 0.5, 0.9}%s", c, set.note),
				Description: "Ψ_I collapses sharply past its peak; Φ barely depends on the " +
					"incumbent's strategy; m_I slightly exceeds 1/2 under scarcity and stays " +
					"at or below 1/2 when capacity is abundant.",
				Reference:  fmt.Sprintf("Ma & Misra §IV-A, Figure %d", set.figs[3]),
				Population: pop,
				Providers:  duopoly(c),
				Sweep: SweepSpec{
					Axis: AxisNu, Lo: 0.008, Hi: 2, Points: 51, OfSaturation: true,
					Metrics: []string{MetricPsi, MetricPhi, MetricShare},
					Grid:    &GridSpec{Axis: AxisKappa, Values: kappas},
				},
			})
		}
	}
	return out
}

func init() {
	builtins = append(builtins, paperFigures()...)
	seen := make(map[string]bool, len(builtins))
	for _, s := range builtins {
		if seen[s.Name] {
			panic("scenario: duplicate built-in " + s.Name)
		}
		seen[s.Name] = true
		if err := s.Validate(); err != nil {
			panic(fmt.Sprintf("scenario: invalid built-in: %v", err))
		}
	}
}

// Names returns the built-in scenario names, sorted.
func Names() []string {
	out := make([]string, len(builtins))
	for i, s := range builtins {
		out[i] = s.Name
	}
	sort.Strings(out)
	return out
}

// GridNames returns the names of the built-in 2-D grid scenarios, sorted.
func GridNames() []string {
	var out []string
	for _, s := range builtins {
		if s.IsGrid() {
			out = append(out, s.Name)
		}
	}
	sort.Strings(out)
	return out
}

// DynamicsNames returns the names of the built-in dynamic scenarios, sorted.
func DynamicsNames() []string {
	var out []string
	for _, s := range builtins {
		if s.IsDynamic() {
			out = append(out, s.Name)
		}
	}
	sort.Strings(out)
	return out
}

// All returns deep copies of every built-in scenario, sorted by name.
func All() []*Scenario {
	out := make([]*Scenario, 0, len(builtins))
	for _, name := range Names() {
		s, _ := Get(name)
		out = append(out, s)
	}
	return out
}

// Get returns a deep copy of the named built-in scenario, so callers can
// modify it freely before running.
func Get(name string) (*Scenario, bool) {
	for _, s := range builtins {
		if s.Name == name {
			js, err := s.JSON()
			if err != nil {
				panic(fmt.Sprintf("scenario: built-in %s does not marshal: %v", name, err))
			}
			dup, err := Load(bytes.NewReader(js))
			if err != nil {
				panic(fmt.Sprintf("scenario: built-in %s does not round-trip: %v", name, err))
			}
			return dup, true
		}
	}
	return nil, false
}
