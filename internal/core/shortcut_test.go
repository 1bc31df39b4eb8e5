package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/netecon-sim/publicoption/internal/alloc"
	"github.com/netecon-sim/publicoption/internal/demand"
	"github.com/netecon-sim/publicoption/internal/traffic"
)

// mixedPopulation draws n CPs whose demand curves cover every family:
// the ones the kernel flattens (exponential, constant, linear, power) and
// the generic ones it calls through the interface.
func mixedPopulation(rng *rand.Rand, n int) traffic.Population {
	pw, err := demand.NewPiecewise([]float64{0, 0.3, 0.7, 1}, []float64{0, 0.2, 0.9, 1})
	if err != nil {
		panic(err)
	}
	curves := []demand.Curve{
		demand.Exponential{Beta: 0.5},
		demand.Exponential{Beta: 5},
		demand.Constant{},
		demand.Linear{Floor: 0.25},
		demand.Power{Gamma: 2},
		demand.SmoothStep{T: 0.5, K: 12},
		pw,
	}
	pop := make(traffic.Population, n)
	for i := range pop {
		pop[i] = traffic.CP{
			Name:     fmt.Sprintf("cp-%03d", i),
			Alpha:    0.05 + 0.95*rng.Float64(),
			ThetaHat: 0.2 + 2.8*rng.Float64(),
			V:        rng.Float64(),
			Phi:      rng.Float64(),
			Curve:    curves[rng.Intn(len(curves))],
		}
	}
	return pop
}

// dynamicsFrom plays the class game from the given start partition (nil:
// affordability) through the full dynamics, without the κ = 1 shortcut, on
// a fresh solver, and returns the equilibrium and whether the first screen
// found a mover.
func dynamicsFrom(mech alloc.Allocator, st Strategy, nu float64, pop traffic.Population, start []bool) (eq *ClassEquilibrium, moved bool) {
	s := NewSolver(mech)
	eq = s.begin(st, nu, pop, start)
	hiFull := mech.LevelHi(pop)
	lO, lP := s.levels(eq, hiFull)
	moved = len(s.screen(eq, s.EpsUtil, lO, lP)) > 0
	s.dynamics(eq, hiFull, s.EpsUtil, lO, lP)
	s.finalize(eq)
	return eq.Clone(), moved
}

// sameGame reports whether two equilibria agree bit for bit on the
// partition, every θ, the iteration count, the band and convergence.
func sameGame(a, b *ClassEquilibrium) bool {
	if !slices.Equal(a.InPremium, b.InPremium) || len(a.Theta) != len(b.Theta) ||
		a.Iterations != b.Iterations || a.Converged != b.Converged ||
		math.Float64bits(a.EpsUsed) != math.Float64bits(b.EpsUsed) {
		return false
	}
	for i := range a.Theta {
		if math.Float64bits(a.Theta[i]) != math.Float64bits(b.Theta[i]) {
			return false
		}
	}
	return true
}

// TestKappaOneShortcutMatchesDynamics pins the κ = 1 shortcut of the class
// game. From the affordability partition the zero-capacity ordinary class
// advertises level 0 (a level ≤ 0 grants rate 0, see alloc.Allocator), so
// no CP gains by switching: the first screen finds no mover under every
// built-in mechanism, for populations mixing every demand family, congested
// or not, and the shortcut's equilibrium is the full dynamics' bit for bit.
// A warm partition that is not the affordability one still runs the
// dynamics and moves.
func TestKappaOneShortcutMatchesDynamics(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	mechanisms := []alloc.Allocator{alloc.MaxMin{}, alloc.AlphaFair{Alpha: 2}, alloc.PerCPMaxMin{}}
	for trial := 0; trial < 16; trial++ {
		pop := mixedPopulation(rng, 2+rng.Intn(70))
		st := Strategy{Kappa: 1, C: 0.05 + 0.9*rng.Float64()}
		nu := (0.02 + 1.3*rng.Float64()) * pop.TotalUnconstrainedPerCapita()
		afford := make([]bool, len(pop))
		for i := range pop {
			afford[i] = pop[i].V > st.C
		}
		for _, mech := range mechanisms {
			what := fmt.Sprintf("trial %d, %s, %d CPs, c=%.3f, ν=%.4g", trial, mech.Name(), len(pop), st.C, nu)
			want, moved := dynamicsFrom(mech, st, nu, pop, nil)
			if moved {
				t.Fatalf("%s: screen from the affordability partition found a mover", what)
			}
			if want.Iterations != 1 || !want.Converged || !slices.Equal(want.InPremium, afford) {
				t.Fatalf("%s: dynamics took %d iterations (converged %v)", what, want.Iterations, want.Converged)
			}
			for _, start := range [][]bool{nil, afford} {
				got := NewSolver(mech).CompetitiveFrom(st, nu, pop, start)
				if !sameGame(got, want) {
					t.Fatalf("%s (warm start %v): shortcut iter=%d ε=%v, dynamics iter=%d ε=%v, or θ differs",
						what, start != nil, got.Iterations, got.EpsUsed, want.Iterations, want.EpsUsed)
				}
			}

			// Move one CP with a clear preference to the wrong class: the
			// game must run the dynamics and move it back.
			flip := -1
			for i := range pop {
				if math.Abs(pop[i].V-st.C) > 0.05 {
					flip = i
					break
				}
			}
			if flip < 0 {
				continue
			}
			warm := slices.Clone(afford)
			warm[flip] = !warm[flip]
			dyn, moved := dynamicsFrom(mech, st, nu, pop, warm)
			got := NewSolver(mech).CompetitiveFrom(st, nu, pop, warm)
			if !moved || got.Iterations < 2 || !sameGame(got, dyn) {
				t.Fatalf("%s: from a non-affordability warm partition the game took %d iterations (first screen moved: %v)",
					what, got.Iterations, moved)
			}
		}
	}
}
