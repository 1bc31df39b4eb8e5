// Package publicoption is a from-scratch Go reproduction of
//
//	Richard T. B. Ma and Vishal Misra,
//	"The Public Option: a Non-regulatory Alternative to Network Neutrality",
//	ACM CoNEXT 2011 (arXiv:1106.3242).
//
// It implements the paper's three-party Internet ecosystem model —
// consumers, last-mile ISPs and content providers (CPs) — along with every
// layer the analysis depends on: demand functions (Assumption 1), axiomatic
// rate-allocation mechanisms and the rate-equilibrium solver (Axioms 1–4,
// Theorem 1), consumer/ISP surplus accounting, the CP class-choice games
// under paid prioritization (Definitions 2–3), the monopoly Stackelberg
// game (§III), the duopoly against a Public Option ISP (§IV-A) and the
// oligopolistic market-share game (§IV-B). A fluid TCP/AIMD simulator
// validates the "TCP ≈ max-min fair" modelling assumption, and an
// M/M/1-delay baseline reproduces the congestion abstraction of prior
// economics literature for comparison.
//
// This root package is the stable public surface: it re-exports the model
// types and entry points from the internal packages. The paper's market
// figures are built-in scenarios (fig4 to fig12) that the cmd/pubopt tool
// regenerates; README.md maps every figure to its scenario or example.
//
// # Quick start
//
//	pop := publicoption.Archetypes() // Google-, Netflix-, Skype-type CPs
//	eq := publicoption.RateEquilibrium(2000, pop)
//	fmt.Println(eq.Theta, publicoption.ConsumerSurplus(eq))
//
// Everything is computed per consumer ("per capita"): capacities are
// ν = µ/M, surpluses are Φ = CS/M and Ψ = IS/M. Scale invariance (Axiom 4,
// Theorem 3) makes this lossless; use SolveSystem for absolute (M, µ)
// inputs.
package publicoption

import (
	"github.com/netecon-sim/publicoption/internal/alloc"
	"github.com/netecon-sim/publicoption/internal/core"
	"github.com/netecon-sim/publicoption/internal/demand"
	"github.com/netecon-sim/publicoption/internal/econ"
	"github.com/netecon-sim/publicoption/internal/netsim"
	"github.com/netecon-sim/publicoption/internal/numeric"
	"github.com/netecon-sim/publicoption/internal/traffic"
)

// Model types re-exported from the internal packages. The aliases are the
// supported names; the internal packages are implementation detail.
type (
	// CP is one content provider: popularity α, unconstrained per-user
	// throughput θ̂, per-unit revenue v, per-unit consumer utility φ and a
	// demand curve.
	CP = traffic.CP
	// Population is an ordered set of CPs.
	Population = traffic.Population
	// PhiSetting selects how consumer utility φ is drawn in the paper's
	// random ensembles (correlated with β, or independent).
	PhiSetting = traffic.PhiSetting
	// EnsembleConfig parameterizes random CP populations.
	EnsembleConfig = traffic.EnsembleConfig

	// DemandCurve is a normalized demand function d(ω) satisfying the
	// paper's Assumption 1.
	DemandCurve = demand.Curve
	// ExponentialDemand is the paper's demand family (Eq. 3).
	ExponentialDemand = demand.Exponential

	// Allocator is a rate-allocation mechanism satisfying Axioms 1–4.
	Allocator = alloc.Allocator
	// MaxMin is per-user max-min fairness, the paper's TCP model.
	MaxMin = alloc.MaxMin
	// AlphaFair is the weighted Mo–Walrand α-fair family.
	AlphaFair = alloc.AlphaFair
	// PerCPMaxMin equalizes aggregate rates across CPs instead of users.
	PerCPMaxMin = alloc.PerCPMaxMin
	// Equilibrium is a rate equilibrium (Theorem 1).
	Equilibrium = alloc.Result
	// EquilibriumWorkspace is the reusable, allocation-free equilibrium
	// kernel: it owns its scratch buffers and warm-starts successive solves
	// from the previous level. Results it returns are pooled; Clone them to
	// retain. Create one per goroutine with NewEquilibriumWorkspace.
	EquilibriumWorkspace = alloc.Workspace

	// Strategy is an ISP differentiation strategy s = (κ, c).
	Strategy = core.Strategy
	// ISP is a competing ISP: capacity share γ and strategy.
	ISP = core.ISP
	// Solver computes CP class-choice equilibria (Definitions 2–3).
	Solver = core.Solver
	// ClassEquilibrium is a two-class CP partition with its rate equilibria.
	ClassEquilibrium = core.ClassEquilibrium
	// Monopoly analyzes the §III Stackelberg game.
	Monopoly = core.Monopoly
	// Market solves consumer-migration equilibria (§IV, Assumption 5).
	Market = core.Market
	// MarketOutcome is a multi-ISP migration equilibrium.
	MarketOutcome = core.MarketOutcome
	// StrategyGrid enumerates candidate strategies for best-response search.
	StrategyGrid = core.StrategyGrid

	// Welfare decomposes per-capita surplus by party.
	Welfare = econ.Welfare

	// TCPFlow is one AIMD flow in the fluid bottleneck simulator.
	TCPFlow = netsim.Flow
	// TCPConfig parameterizes a simulator run.
	TCPConfig = netsim.Config
	// TCPResult is the simulator's measured outcome.
	TCPResult = netsim.Result
)

// Ensemble φ settings (§III-E and appendix).
const (
	// PhiCorrelated is the main-text setting: φ_i ~ U[0, β_i], biasing
	// utility toward throughput-sensitive CPs.
	PhiCorrelated = traffic.PhiCorrelated
	// PhiIndependent is the appendix setting: φ_i drawn independently of
	// β_i on the same scale (Figures 9–12).
	PhiIndependent = traffic.PhiIndependent
)

// PublicOptionStrategy is the fixed strategy (κ=0, c=0) of a Public Option
// ISP (Definition 5).
var PublicOptionStrategy = core.PublicOption

// Archetypes returns the paper's §II-D example population: Google-,
// Netflix- and Skype-type CPs (Figure 3 workload, throughputs in Kbps).
func Archetypes() Population { return traffic.Archetypes() }

// PaperPopulation returns the deterministic 1000-CP ensemble of §III-E used
// by all published experiments, under the given φ setting.
func PaperPopulation(phi PhiSetting) Population { return traffic.PaperPopulation(phi) }

// PaperEnsemble returns the §III-E ensemble configuration (draw with
// EnsembleConfig.Generate and a seeded RNG for custom populations).
func PaperEnsemble(phi PhiSetting) EnsembleConfig { return traffic.PaperEnsemble(phi) }

// GeneratePopulation draws a random population of n CPs from the §III-E
// ensemble with the given seed — a smaller stand-in for PaperPopulation
// when full-scale runs are unnecessary.
func GeneratePopulation(phi PhiSetting, n int, seed uint64) Population {
	cfg := traffic.PaperEnsemble(phi)
	cfg.N = n
	return cfg.Generate(numeric.NewRNG(seed))
}

// RateEquilibrium solves the unique rate equilibrium (Theorem 1) of the
// per-capita system (ν, pop) under max-min fairness, the paper's default
// mechanism. Use RateEquilibriumUnder for other mechanisms.
func RateEquilibrium(nu float64, pop Population) *Equilibrium {
	return RateEquilibriumUnder(alloc.MaxMin{}, nu, pop)
}

// RateEquilibriumUnder solves the rate equilibrium under an explicit
// allocation mechanism. It solves on a fresh workspace, so the result is
// the caller's to keep.
func RateEquilibriumUnder(a Allocator, nu float64, pop Population) *Equilibrium {
	return alloc.NewWorkspace(a).Solve(nu, pop)
}

// NewEquilibriumWorkspace returns a reusable warm-started equilibrium
// solver for mechanism a (nil means max-min). Sweeping callers that solve
// many nearby systems should prefer it over RateEquilibrium: successive
// solves reuse all scratch memory (zero heap allocations on the steady
// state) and warm-start from the previous operating level.
func NewEquilibriumWorkspace(a Allocator) *EquilibriumWorkspace {
	return alloc.NewWorkspace(a)
}

// SolveSystem is the absolute-scale entry point for a system of M consumers
// sharing capacity mu (Axiom 4 reduces it to ν = µ/M).
func SolveSystem(a Allocator, m, mu float64, pop Population) *Equilibrium {
	return alloc.NewWorkspace(a).SolveSystem(m, mu, pop)
}

// ConsumerSurplus returns the per-capita consumer surplus Φ (Eq. 2) of a
// rate equilibrium.
func ConsumerSurplus(eq *Equilibrium) float64 { return econ.Phi(eq) }

// MaxConsumerSurplus returns Φ's saturation value Σ φ_i·α_i·θ̂_i.
func MaxConsumerSurplus(pop Population) float64 { return econ.MaxPhi(pop) }

// WelfareOf decomposes a class equilibrium's per-capita surplus at premium
// price c among consumers, the ISP and the CPs.
func WelfareOf(eq *Equilibrium, c float64) Welfare { return econ.WelfareOf(eq, c) }

// NewSolver returns a class-choice game solver over mechanism a (nil for
// max-min).
func NewSolver(a Allocator) *Solver { return core.NewSolver(a) }

// NewMonopoly returns a monopoly analyzer (§III) over solver s (nil for
// defaults).
func NewMonopoly(s *Solver) *Monopoly { return core.NewMonopoly(s) }

// NewMarket returns a consumer-migration market solver (§IV) for the
// population and system per-capita capacity.
func NewMarket(s *Solver, pop Population, nuBar float64) *Market {
	return core.NewMarket(s, pop, nuBar)
}

// DuopolyWithPublicOption solves the §IV-A game: a strategic ISP with
// capacity share gamma playing strategy s against a Public Option holding
// the rest, on system per-capita capacity nuBar.
func DuopolyWithPublicOption(s Strategy, gamma, nuBar float64, pop Population) *MarketOutcome {
	mk := core.NewMarket(nil, pop, nuBar)
	return mk.Solve([]ISP{
		{Name: "strategic", Gamma: gamma, Strategy: s},
		{Name: "public-option", Gamma: 1 - gamma, Strategy: core.PublicOption},
	})
}

// SimulateTCP runs the fluid AIMD bottleneck simulator.
func SimulateTCP(cfg TCPConfig, flows []TCPFlow) (*TCPResult, error) {
	return netsim.Run(cfg, flows)
}

// TCPMaxMinReference returns the analytic max-min allocation the simulator
// is validated against.
func TCPMaxMinReference(capacity float64, caps []float64) []float64 {
	return netsim.MaxMinRates(capacity, caps)
}
