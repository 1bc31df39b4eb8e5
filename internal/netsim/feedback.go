package netsim

import (
	"fmt"
	"math"

	"github.com/netecon-sim/publicoption/internal/alloc"
	"github.com/netecon-sim/publicoption/internal/traffic"
)

// DemandConfig couples the fluid AIMD simulator with the paper's demand
// functions: the number of active flows per content provider follows the
// demand d_i(θ_i) at the throughput the simulator last delivered, closing
// the loop whose fixed point is the paper's rate equilibrium (Theorem 1).
type DemandConfig struct {
	Pop      traffic.Population // content providers
	M        int                // consumer population size (keep modest: flows ≈ Σ α_i·M)
	Capacity float64            // absolute link capacity µ (so ν = µ/M)
	Rounds   int                // fixed-point iterations; default 12
	Damping  float64            // θ update damping in (0,1]; default 0.5
	Sim      Config             // per-round simulator settings (Capacity is overwritten)
}

// DemandResult reports the closed-loop equilibrium and its analytic
// reference.
type DemandResult struct {
	Theta      []float64 // per-CP per-user throughput from the simulator loop
	FlowCounts []int     // final active flows per CP
	Analytic   []float64 // the analytic max-min (Theorem 1) reference θ
	// Compared[i] is false when CP i's analytic equilibrium demand rounds
	// to fewer than two flows at this M: the analytic model is a continuum,
	// and a CP that cannot field even a couple of discrete flows has no
	// meaningful simulated throughput to compare (its θ oscillates with its
	// 0↔1 flow count). Such CPs are excluded from MaxRelErr.
	Compared  []bool
	MaxRelErr float64 // worst |Theta − Analytic| / max θ̂ over compared CPs
}

// SolveDemandEquilibrium iterates simulator rounds against the demand
// functions until the per-CP throughputs settle, then compares with the
// analytic rate equilibrium of the alloc package. It is the integration
// test target bridging the two substrates; agreement within a few percent
// validates Assumption 2 end to end.
func SolveDemandEquilibrium(cfg DemandConfig) (*DemandResult, error) {
	if cfg.M <= 0 {
		return nil, fmt.Errorf("netsim: M=%d, want > 0", cfg.M)
	}
	if len(cfg.Pop) == 0 {
		return nil, fmt.Errorf("netsim: empty population")
	}
	if cfg.Rounds <= 0 {
		cfg.Rounds = 12
	}
	if cfg.Damping <= 0 || cfg.Damping > 1 {
		cfg.Damping = 0.5
	}
	cfg.Sim.Capacity = cfg.Capacity

	n := len(cfg.Pop)
	theta := make([]float64, n)
	for i := range cfg.Pop {
		theta[i] = cfg.Pop[i].ThetaHat
	}
	counts := make([]int, n)
	for round := 0; round < cfg.Rounds; round++ {
		var flows []Flow
		var owner []int
		for i := range cfg.Pop {
			cp := &cfg.Pop[i]
			counts[i] = int(math.Round(cp.Alpha * float64(cfg.M) * cp.DemandAt(theta[i])))
			for k := 0; k < counts[i]; k++ {
				flows = append(flows, Flow{
					Name: fmt.Sprintf("%s/%d", cp.Name, k),
					RTT:  0.05,
					Cap:  cp.ThetaHat,
				})
				owner = append(owner, i)
			}
		}
		if len(flows) == 0 {
			break
		}
		cfg.Sim.Seed = uint64(round + 1)
		res, err := Run(cfg.Sim, flows)
		if err != nil {
			return nil, err
		}
		// Per-CP throughput: mean over its flows.
		sum := make([]float64, n)
		cnt := make([]int, n)
		for f := range flows {
			sum[owner[f]] += res.Flows[f].Rate
			cnt[owner[f]]++
		}
		for i := range cfg.Pop {
			target := cfg.Pop[i].ThetaHat // CPs with no active flows would be uncongested
			if cnt[i] > 0 {
				target = sum[i] / float64(cnt[i])
			}
			theta[i] += cfg.Damping * (target - theta[i])
			if theta[i] > cfg.Pop[i].ThetaHat {
				theta[i] = cfg.Pop[i].ThetaHat
			}
		}
	}

	analytic := alloc.NewWorkspace(alloc.MaxMin{}).Solve(cfg.Capacity/float64(cfg.M), cfg.Pop)
	out := &DemandResult{
		Theta:      theta,
		FlowCounts: counts,
		Analytic:   analytic.Theta,
		Compared:   make([]bool, n),
	}
	scale := cfg.Pop.MaxThetaHat()
	for i := range theta {
		cp := &cfg.Pop[i]
		analyticFlows := cp.Alpha * float64(cfg.M) * cp.DemandAt(analytic.Theta[i])
		if analyticFlows < 2 {
			continue
		}
		out.Compared[i] = true
		if err := math.Abs(theta[i]-analytic.Theta[i]) / scale; err > out.MaxRelErr {
			out.MaxRelErr = err
		}
	}
	return out, nil
}
