// Package validate is the Tier-2 verification harness: it samples solved
// fluid equilibria out of scenarios (internal/scenario), replays each
// through the packet-level AIMD simulator (internal/netsim) with a
// many-flow population derived from the equilibrium's rates and θ shares,
// and checks per-CP throughput and rate agreement within configurable
// tolerances.
//
// This converts the paper's central modelling assumption (§II-D.2, that
// TCP-like dynamics realize the max-min rate equilibrium of Theorem 1)
// from a solver-vs-solver claim into one a simulation can falsify: if the
// equilibrium kernel and the congestion-control dynamics ever diverge, the
// replay's verdicts fail. See docs/VALIDATION.md for the tolerance
// methodology.
package validate

import (
	"errors"
	"fmt"
	"math"
	"runtime"

	"github.com/netecon-sim/publicoption/internal/alloc"
	"github.com/netecon-sim/publicoption/internal/netsim"
	"github.com/netecon-sim/publicoption/internal/scenario"
	"github.com/netecon-sim/publicoption/internal/sweep"
)

// Options parameterizes a validation run. Zero fields take defaults.
type Options struct {
	// Samples bounds how many sweep cells are solved and replayed per
	// scenario (a deterministic subsample; see scenario.SampleOptions).
	// Default 3.
	Samples int
	// Seed drives the cell subsample and the simulator RNG. Default 1.
	Seed uint64
	// Flows is the target flow count per replayed link. Default 192.
	Flows int
	// RTT is the flows' base round-trip time in seconds. Default 0.05.
	RTT float64
	// RelTol, AbsTol and NoiseTol define the agreement band: a verdict
	// passes iff |packet − fluid| ≤ RelTol·|fluid| + (AbsTol + NoiseTol/√n)·scale,
	// where scale is the link's largest fluid value of the same metric and
	// n the flow count behind the packet-side estimate. The 1/√n term is
	// the statistical allowance: a per-CP mean over few discrete AIMD
	// sawteeth carries loss-event sampling noise that vanishes as the flow
	// population grows. Defaults 0.12 / 0.04 / 0.35 (see docs/VALIDATION.md
	// for how these were calibrated).
	RelTol   float64
	AbsTol   float64
	NoiseTol float64
	// CapSlack allows for the one systematic fluid/packet discrepancy: an
	// AIMD flow whose application cap lies below its sawtooth peak (4/3 of
	// the fair share) stays pressed against the cap and delivers a few
	// percent less than the fluid water-fill grants it; at a shared
	// droptail queue that slack is picked up by the cap-free flows. Elastic
	// CPs therefore get an extra allowance of
	// CapSlack·(cap-limited fluid traffic)/(cap-free flow count) on a
	// constrained link. Default 0.10 (caps may underdeliver by up to 10%).
	CapSlack float64
	// MinFlows excludes CPs fielding fewer flows from comparison (they are
	// still simulated): the fluid model is a continuum, and a per-CP mean
	// over one or two discrete AIMD sawteeth says nothing about the
	// equilibrium even with the NoiseTol allowance. Default 3.
	MinFlows int
	// Warmup and Measure are the simulator windows in seconds. Defaults
	// 5 / 15 (shorter than the simulator's own defaults; the warm-started
	// windows make long warmups unnecessary).
	Warmup, Measure float64
	// Workers bounds parallel link replays. 0 means GOMAXPROCS.
	Workers int
}

func (o Options) withDefaults() Options {
	if o.Samples <= 0 {
		o.Samples = 3
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Flows <= 0 {
		o.Flows = 192
	}
	if o.RTT <= 0 {
		o.RTT = 0.05
	}
	if o.RelTol <= 0 {
		o.RelTol = 0.12
	}
	if o.AbsTol <= 0 {
		o.AbsTol = 0.04
	}
	if o.NoiseTol <= 0 {
		o.NoiseTol = 0.35
	}
	if o.CapSlack <= 0 {
		o.CapSlack = 0.10
	}
	if o.MinFlows <= 0 {
		o.MinFlows = 3
	}
	if o.Warmup <= 0 {
		o.Warmup = 5
	}
	if o.Measure <= 0 {
		o.Measure = 15
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// Verdict is one fluid-vs-packet comparison: a metric of one CP (or of the
// whole link) on one replayed bottleneck.
type Verdict struct {
	Scenario string `json:"scenario"`
	Cell     string `json:"cell"`
	Link     string `json:"link"`
	// CP is the content provider compared, or "link" for link-level
	// metrics.
	CP string `json:"cp"`
	// Metric is "theta" (per-flow throughput), "rate" (the CP's delivered
	// share of link capacity), or "utilization" (link-level).
	Metric string  `json:"metric"`
	Fluid  float64 `json:"fluid"`  // the solver's equilibrium value
	Packet float64 `json:"packet"` // the simulator's measured value
	Err    float64 `json:"error"`  // |packet − fluid|
	Tol    float64 `json:"tolerance"`
	Pass   bool    `json:"pass"`
}

// LinkResult is the replay outcome of one sampled link.
type LinkResult struct {
	Scenario string `json:"scenario"`
	Cell     string `json:"cell"`
	Link     string `json:"link"`
	// FlowCount is the simulated flow population size; Compared counts the
	// CPs with enough flows to be held to tolerance.
	FlowCount int `json:"flows"`
	Compared  int `json:"compared_cps"`
	// Skipped is non-empty when the link was not replayed (no active
	// demand at the sampled cell), with the reason.
	Skipped  string    `json:"skipped,omitempty"`
	Verdicts []Verdict `json:"verdicts,omitempty"`
}

// CheckMechanism reports whether the packet simulator has a discipline
// matching the allocation mechanism. AIMD flows at a shared FIFO
// bottleneck realize max-min fairness, which also covers unweighted α-fair
// allocation — under unit weights every α yields exactly the max-min
// profile (see alloc.AlphaFair). Weighted mechanisms have no TCP
// counterpart here and are rejected.
func CheckMechanism(a alloc.Allocator) error {
	switch m := a.(type) {
	case nil:
		return nil // callers' nil convention means max-min (core.NewSolver)
	case alloc.MaxMin:
		return nil
	case alloc.AlphaFair:
		if m.Weights == nil {
			return nil
		}
		return fmt.Errorf("validate: weighted α-fair allocation has no matching packet discipline")
	default:
		return fmt.Errorf("validate: allocation mechanism %q has no matching packet discipline", a.Name())
	}
}

// ReplayEquilibrium replays one fluid equilibrium through the packet
// simulator and compares per-CP throughputs (θ), delivered rate shares,
// and link utilization against the solver's values. The Scenario/Cell/Link
// labels of the result are left empty for the caller to stamp. A link
// whose equilibrium has no active demand is reported as skipped, not an
// error.
func ReplayEquilibrium(eq *alloc.Result, mech alloc.Allocator, seed uint64, opt Options) (*LinkResult, error) {
	opt = opt.withDefaults()
	if err := CheckMechanism(mech); err != nil {
		return nil, err
	}
	plan, err := netsim.PlanEquilibrium(eq, netsim.PlanConfig{TargetFlows: opt.Flows, RTT: opt.RTT})
	if errors.Is(err, netsim.ErrNoDemand) {
		return &LinkResult{Skipped: err.Error()}, nil
	}
	if err != nil {
		return nil, err
	}
	cfg := plan.SimConfig(seed)
	cfg.Warmup, cfg.Measure = opt.Warmup, opt.Measure
	res, err := netsim.Run(cfg, plan.Flows)
	if err != nil {
		return nil, err
	}
	mean, delivered, err := plan.MeasureByOwner(res)
	if err != nil {
		return nil, err
	}

	lr := &LinkResult{FlowCount: len(plan.Flows)}
	// Tolerance scales: the link's largest fluid value per metric, so
	// near-zero fluid values (tightly capped CPs) are judged against the
	// link's operating point rather than against themselves.
	var thetaScale, rateScale, fluidTotal float64
	for i, n := range plan.Counts {
		if n == 0 {
			continue
		}
		fluidTotal += float64(n) * plan.Theta[i]
		if plan.Theta[i] > thetaScale {
			thetaScale = plan.Theta[i]
		}
		if share := float64(n) * plan.Theta[i] / plan.Capacity; share > rateScale {
			rateScale = share
		}
	}
	// Cap-slack allowance (see Options.CapSlack): on a constrained link,
	// flows whose cap θ̂ sits below the AIMD sawtooth peak (4/3 of the
	// water level) systematically underdeliver a little, and cap-free
	// flows absorb the difference.
	capLimited := func(i int) bool {
		return eq.Constrained && eq.Pop[i].ThetaHat < 4.0/3.0*eq.Level
	}
	var cappedTraffic float64
	elasticFlows := 0
	for i, n := range plan.Counts {
		if n == 0 {
			continue
		}
		if capLimited(i) {
			cappedTraffic += float64(n) * plan.Theta[i]
		} else {
			elasticFlows += n
		}
	}
	var slack float64
	if elasticFlows > 0 {
		slack = opt.CapSlack * cappedTraffic / float64(elasticFlows)
	}

	verdict := func(cp, metric string, fluid, packet, scale, extra float64, n int) {
		e := math.Abs(packet - fluid)
		tol := opt.RelTol*math.Abs(fluid) + (opt.AbsTol+opt.NoiseTol/math.Sqrt(float64(n)))*scale + extra
		lr.Verdicts = append(lr.Verdicts, Verdict{
			CP: cp, Metric: metric,
			Fluid: fluid, Packet: packet, Err: e, Tol: tol, Pass: e <= tol,
		})
	}
	for i := range eq.Pop {
		n := plan.Counts[i]
		if n < opt.MinFlows {
			continue
		}
		lr.Compared++
		var extra float64
		if !capLimited(i) {
			extra = slack
		}
		verdict(eq.Pop[i].Name, "theta", plan.Theta[i], mean[i], thetaScale, extra, n)
		verdict(eq.Pop[i].Name, "rate", float64(n)*plan.Theta[i]/plan.Capacity, delivered[i]/plan.Capacity, rateScale, float64(n)*extra/plan.Capacity, n)
	}
	verdict("link", "utilization", fluidTotal/plan.Capacity, res.Utilization, 1, 0, len(plan.Flows))
	return lr, nil
}

// Report is the validation outcome of one scenario: one LinkResult per
// sampled link.
type Report struct {
	Scenario string       `json:"scenario"`
	Samples  []LinkResult `json:"samples"`
}

// Counts returns the total and failed verdict counts.
func (r *Report) Counts() (verdicts, failed int) {
	for i := range r.Samples {
		for _, v := range r.Samples[i].Verdicts {
			verdicts++
			if !v.Pass {
				failed++
			}
		}
	}
	return verdicts, failed
}

// Scenario samples the scenario's solved equilibria and replays each
// sampled link through the packet simulator, in parallel across links.
// Scenarios whose equilibria cannot be sampled (batched populations)
// return an error.
func Scenario(s *scenario.Scenario, opt Options) (*Report, error) {
	opt = opt.withDefaults()
	links, err := s.SampleEquilibria(scenario.SampleOptions{MaxCells: opt.Samples, Seed: opt.Seed})
	if err != nil {
		return nil, err
	}
	rep := &Report{Scenario: s.Name, Samples: make([]LinkResult, len(links))}
	errs := make([]error, len(links))
	sweep.RunRows(opt.Workers, len(links), func(_, i int) {
		l := &links[i]
		// Decorrelate per-link simulator seeds deterministically.
		lr, err := ReplayEquilibrium(l.Eq, alloc.MaxMin{}, opt.Seed+uint64(i)*0x9e3779b97f4a7c15, opt)
		if err != nil {
			errs[i] = fmt.Errorf("%s %s %s: %w", l.Scenario, l.Cell, l.Link(), err)
			return
		}
		lr.Scenario, lr.Cell, lr.Link = l.Scenario, l.Cell, l.Link()
		for vi := range lr.Verdicts {
			v := &lr.Verdicts[vi]
			v.Scenario, v.Cell, v.Link = lr.Scenario, lr.Cell, lr.Link
		}
		rep.Samples[i] = *lr
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return rep, nil
}
