package alloc

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/netecon-sim/publicoption/internal/demand"
	"github.com/netecon-sim/publicoption/internal/traffic"
)

// goldenMechanisms are the built-in mechanisms the kernel must reproduce.
func goldenMechanisms() []Allocator {
	return []Allocator{
		MaxMin{},
		AlphaFair{Alpha: 1},
		AlphaFair{Alpha: 2, Weights: WeightByThetaHat},
		AlphaFair{Alpha: 0.5, Weights: func(cp *traffic.CP) float64 { return 0.5 + cp.Alpha }},
		PerCPMaxMin{},
	}
}

// randomPopulation draws n CPs mixing every demand family, including the
// ones the flattened path does not special-case (SmoothStep, Piecewise).
func randomPopulation(rng *rand.Rand, n int) traffic.Population {
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

// goldenPopulations are the populations the kernel goldens solve: empty,
// single, pair, small and 120 CPs.
func goldenPopulations() []traffic.Population {
	rng := rand.New(rand.NewSource(41))
	return []traffic.Population{
		nil, // empty
		randomPopulation(rng, 1),
		randomPopulation(rng, 2),
		randomPopulation(rng, 17),
		randomPopulation(rng, 120),
	}
}

// nuGridFor returns the capacity stations every population is solved at:
// ν = 0, a ν → 0 sliver, interior points, the saturation boundary and an
// uncongested excess.
func nuGridFor(pop traffic.Population) []float64 {
	total := pop.TotalUnconstrainedPerCapita()
	return []float64{0, 1e-12 * math.Max(total, 1), 0.1 * total, 0.5 * total, 0.9 * total, total, 1.5*total + 1}
}

// assertGolden requires the workspace result to match the reference Solve
// to 1e-9 in Level and Theta (relative to the level range / θ̂ scale).
func assertGolden(t *testing.T, ref, got *Result, hi float64, label string) {
	t.Helper()
	if got.Constrained != ref.Constrained {
		t.Fatalf("%s: Constrained = %t, reference %t", label, got.Constrained, ref.Constrained)
	}
	scale := math.Max(hi, 1)
	if d := math.Abs(got.Level - ref.Level); d > 1e-9*scale {
		t.Fatalf("%s: Level = %.15g, reference %.15g (Δ=%g > 1e-9·%g)", label, got.Level, ref.Level, d, scale)
	}
	if len(got.Theta) != len(ref.Theta) {
		t.Fatalf("%s: %d thetas, reference %d", label, len(got.Theta), len(ref.Theta))
	}
	for i := range ref.Theta {
		ts := math.Max(math.Max(ref.Pop[i].ThetaHat, hi), 1)
		if d := math.Abs(got.Theta[i] - ref.Theta[i]); d > 1e-9*ts {
			// θ can be ill-conditioned in the level where the demand curve
			// vanishes (PerCPMaxMin inverts α·d(θ)·θ, whose derivative → 0
			// as d → 0, so machine-level level differences blow up in θ).
			// There the economics — the per-CP equilibrium rate — is the
			// meaningful invariant; require it instead, to the same bar.
			cp := &ref.Pop[i]
			rg, rr := cp.PerCapitaRate(got.Theta[i]), cp.PerCapitaRate(ref.Theta[i])
			if rd := math.Abs(rg - rr); rd > 1e-9*math.Max(rr, 1) {
				t.Fatalf("%s: θ_%d = %.15g, reference %.15g (Δ=%g; rate Δ=%g)", label, i, got.Theta[i], ref.Theta[i], d, rd)
			}
		}
	}
}

// TestWorkspaceGoldenEquivalence sweeps every built-in mechanism across
// random populations and capacity stations, comparing the warm-started
// kernel against the reference bisection point by point. The workspace is
// reused across the whole sweep, so every solve after the first is warm.
func TestWorkspaceGoldenEquivalence(t *testing.T) {
	pops := goldenPopulations()
	for _, mech := range goldenMechanisms() {
		w := NewWorkspace(mech)
		for pi, pop := range pops {
			hi := 1.0
			if len(pop) > 0 {
				hi = mech.LevelHi(pop)
			}
			for _, nu := range nuGridFor(pop) {
				label := fmt.Sprintf("%s/pop%d/ν=%g", mech.Name(), pi, nu)
				ref := Solve(mech, nu, pop)
				got := w.Solve(nu, pop)
				assertGolden(t, ref, got, hi, label)
				if want := math.Min(nu, pop.TotalUnconstrainedPerCapita()); len(pop) > 0 {
					if agg := got.Aggregate(); math.Abs(agg-want) > 1e-6*math.Max(want, 1) {
						t.Fatalf("%s: aggregate %g, want %g (work conservation)", label, agg, want)
					}
				}
			}
		}
	}
}

// opaqueMaxMin is max-min behind a type the kernel does not recognize, so
// a workspace solves it down the per-CP RateAt path that every
// user-supplied mechanism takes. It holds MaxMin in a named field rather
// than embedding it, which would promote MaxMin's flatten.
type opaqueMaxMin struct{ inner MaxMin }

func (o opaqueMaxMin) RateAt(level float64, cp *traffic.CP) float64 {
	return o.inner.RateAt(level, cp)
}
func (o opaqueMaxMin) LevelHi(pop traffic.Population) float64 { return o.inner.LevelHi(pop) }
func (opaqueMaxMin) Name() string                             { return "opaque-maxmin" }

// TestWorkspaceGenericPath runs a mechanism the kernel cannot flatten over
// the golden populations and capacity stations, warm in sequence, and
// requires the reference Solve's answers and a residual that bounds the
// returned rates' work-conservation error.
func TestWorkspaceGenericPath(t *testing.T) {
	mech := opaqueMaxMin{}
	w := NewWorkspace(mech)
	if w.flat != nil {
		t.Fatal("opaque mechanism took the flattened path")
	}
	for pi, pop := range goldenPopulations() {
		hi := 1.0
		if len(pop) > 0 {
			hi = mech.LevelHi(pop)
		}
		total := pop.TotalUnconstrainedPerCapita()
		ulp := math.Nextafter(total, math.Inf(1)) - total
		for _, nu := range nuGridFor(pop) {
			label := fmt.Sprintf("%s/pop%d/ν=%g", mech.Name(), pi, nu)
			got := w.Solve(nu, pop)
			assertGolden(t, Solve(mech, nu, pop), got, hi, label)
			if r, err := w.Stats().Residual, math.Abs(got.Aggregate()-math.Min(nu, total)); r+16*ulp < err {
				t.Fatalf("%s: recorded residual %g < true error %g", label, r, err)
			}
		}
	}
}

// TestWorkspaceWarmMatchesCold solves a fine monotone capacity sweep twice —
// once with a single warm workspace, once with a cold workspace per point —
// and requires identical-to-tolerance answers plus a smaller evaluation
// budget for the warm pass (a handful of aggregate evaluations per solve,
// versus the old fixed bisection's ~43).
func TestWorkspaceWarmMatchesCold(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pop := randomPopulation(rng, 60)
	total := pop.TotalUnconstrainedPerCapita()
	warm := NewWorkspace(MaxMin{})
	warm.Solve(1.0/50*total, pop) // prime the warm level

	const solves = 39
	var warmEvals, coldEvals uint64
	for k := 2; k <= solves+1; k++ {
		nu := total * float64(k) / 50
		cold := NewWorkspace(MaxMin{})
		refColdStart := cold.Solve(nu, pop).Clone()
		coldEvals += cold.Stats().Evals

		before := warm.Stats().Evals
		got := warm.Solve(nu, pop)
		warmEvals += warm.Stats().Evals - before

		ref := Solve(MaxMin{}, nu, pop)
		assertGolden(t, ref, got, MaxMin{}.LevelHi(pop), fmt.Sprintf("warm ν=%g", nu))
		assertGolden(t, ref, refColdStart, MaxMin{}.LevelHi(pop), fmt.Sprintf("cold ν=%g", nu))
	}
	if warmEvals >= coldEvals {
		t.Fatalf("warm sweep used %d evals, cold %d — warm start must be cheaper", warmEvals, coldEvals)
	}
	if avg := float64(warmEvals) / solves; avg > 12 {
		t.Fatalf("warm solves averaged %.1f evals, want a handful (≤ 12)", avg)
	}
}

// TestWorkspaceResultPooling documents the pooling contract: the Result is
// rebound by the next Solve, and Clone detaches it.
func TestWorkspaceResultPooling(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pop := randomPopulation(rng, 10)
	total := pop.TotalUnconstrainedPerCapita()
	w := NewWorkspace(MaxMin{})
	first := w.Solve(0.3*total, pop)
	keep := first.Clone()
	second := w.Solve(0.6*total, pop)
	if first != second {
		t.Fatalf("pooled Result pointer changed across solves")
	}
	ref := Solve(MaxMin{}, 0.3*total, pop)
	for i := range ref.Theta {
		if math.Abs(keep.Theta[i]-ref.Theta[i]) > 1e-9 {
			t.Fatalf("clone θ_%d = %g drifted after rebind, want %g", i, keep.Theta[i], ref.Theta[i])
		}
	}
}

// TestWorkspaceZeroAllocWarm is the kernel's headline property, also gated
// in CI through the -benchmem microbenchmarks: a warm solve of a bound-size
// system performs zero heap allocations for every built-in mechanism,
// PerCPMaxMin's rate inversions included.
func TestWorkspaceZeroAllocWarm(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pop := randomPopulation(rng, 200)
	total := pop.TotalUnconstrainedPerCapita()
	for _, mech := range []Allocator{MaxMin{}, AlphaFair{Alpha: 2, Weights: WeightByThetaHat}, PerCPMaxMin{}} {
		w := NewWorkspace(mech)
		w.Solve(0.4*total, pop) // warm up: buffers grown, level seeded
		nus := []float64{0.41 * total, 0.43 * total, 0.45 * total}
		i := 0
		allocs := testing.AllocsPerRun(50, func() {
			w.Solve(nus[i%len(nus)], pop)
			i++
		})
		if allocs != 0 {
			t.Fatalf("%s: warm solve allocated %.1f objects/op, want 0", mech.Name(), allocs)
		}
	}
}

// TestWorkspacePanicsMatchSolve pins the error contract to the reference.
func TestWorkspacePanicsMatchSolve(t *testing.T) {
	w := NewWorkspace(MaxMin{})
	mustPanic := func(label string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", label)
			}
		}()
		f()
	}
	mustPanic("negative ν", func() { w.Solve(-1, nil) })
	mustPanic("NaN ν", func() { w.Solve(math.NaN(), nil) })
	mustPanic("bad M", func() { w.SolveSystem(0, 1, nil) })
	badWeights := NewWorkspace(AlphaFair{Alpha: 1, Weights: func(*traffic.CP) float64 { return -1 }})
	pop := traffic.Population{{Name: "x", Alpha: 0.5, ThetaHat: 1, Curve: demand.Constant{}}}
	mustPanic("negative weight", func() { badWeights.Solve(0.1, pop) })
}

// TestEvalHelpersMatchInterfaces pins the devirtualized scalar helpers to
// the interface methods they shadow.
func TestEvalHelpersMatchInterfaces(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	pop := randomPopulation(rng, 30)
	for _, mech := range goldenMechanisms() {
		hi := mech.LevelHi(pop)
		for _, frac := range []float64{-0.1, 0, 0.3, 0.8, 1, 1.4} {
			level := frac * hi
			for i := range pop {
				cp := &pop[i]
				if got, want := EvalRate(mech, level, cp), mech.RateAt(level, cp); got != want {
					t.Fatalf("%s: EvalRate(%g, %s) = %g, RateAt %g", mech.Name(), level, cp.Name, got, want)
				}
			}
		}
	}
	for i := range pop {
		cp := &pop[i]
		for _, theta := range []float64{-1, 0, 0.1 * cp.ThetaHat, 0.99 * cp.ThetaHat, cp.ThetaHat, 2 * cp.ThetaHat} {
			if got, want := EvalRho(cp, theta), cp.Rho(theta); got != want {
				t.Fatalf("EvalRho(%s, %g) = %g, Rho %g", cp.Name, theta, got, want)
			}
			if got, want := EvalPerCapitaRate(cp, theta), cp.PerCapitaRate(theta); got != want {
				t.Fatalf("EvalPerCapitaRate(%s, %g) = %g, PerCapitaRate %g", cp.Name, theta, got, want)
			}
		}
	}
}
