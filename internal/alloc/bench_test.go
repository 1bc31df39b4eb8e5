package alloc

import (
	"testing"

	"github.com/netecon-sim/publicoption/internal/traffic"
)

// The kernel microbenchmarks are CI's performance probes for the hot solve
// path: CI extracts them (with -benchmem) into BENCH_core.json and fails
// the build if the warm-solve kernel reports any allocations per op. Run
// locally with
//
//	go test -run '^$' -bench 'BenchmarkKernel|BenchmarkReference' -benchmem ./internal/alloc
//
// See docs/PERFORMANCE.md for how to read the numbers.

func benchPopulation() traffic.Population {
	return traffic.PaperPopulation(traffic.PhiCorrelated) // 1000 CPs, §III-E
}

// BenchmarkReferenceSolve1000 times the reference bisection (Solve): the
// pre-kernel baseline every Workspace number is compared against.
func BenchmarkReferenceSolve1000(b *testing.B) {
	pop := benchPopulation()
	nu := 0.5 * pop.TotalUnconstrainedPerCapita()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Solve(MaxMin{}, nu, pop)
	}
}

// BenchmarkKernelColdSolve1000 times a cold Workspace solve: warm state is
// dropped every iteration, so the root search starts from the analytic
// [0, LevelHi] bracket. Buffers are still reused (that is the workspace's
// job), so allocs/op stays 0.
func BenchmarkKernelColdSolve1000(b *testing.B) {
	pop := benchPopulation()
	nu := 0.5 * pop.TotalUnconstrainedPerCapita()
	w := NewWorkspace(MaxMin{})
	w.Solve(nu, pop) // size the buffers before the measured region
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Reset()
		w.Solve(nu, pop)
	}
}

// BenchmarkKernelWarmSolve1000 is the headline warm path: successive solves
// at slowly moving capacity, exactly the access pattern of sweeps and the
// class dynamics. CI asserts 0 allocs/op on this benchmark.
func BenchmarkKernelWarmSolve1000(b *testing.B) {
	pop := benchPopulation()
	total := pop.TotalUnconstrainedPerCapita()
	nus := []float64{0.49 * total, 0.5 * total, 0.51 * total}
	w := NewWorkspace(MaxMin{})
	w.Solve(nus[0], pop)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Solve(nus[i%len(nus)], pop)
	}
}

// BenchmarkKernelWarmSolveAlphaFair1000 exercises the flattened path where
// the old interface loop was most expensive (a math.Pow per CP per
// evaluation, hoisted to one per CP per solve).
func BenchmarkKernelWarmSolveAlphaFair1000(b *testing.B) {
	pop := benchPopulation()
	total := pop.TotalUnconstrainedPerCapita()
	nus := []float64{0.49 * total, 0.5 * total, 0.51 * total}
	w := NewWorkspace(AlphaFair{Alpha: 2, Weights: WeightByThetaHat})
	w.Solve(nus[0], pop)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Solve(nus[i%len(nus)], pop)
	}
}

// BenchmarkKernelWarmSolvePerCP1000 is the warm path of PerCPMaxMin: the
// root search runs on the flattened arrays like max-min's, and each solve
// then inverts every CP's rate once through RateAt. CI asserts 0 allocs/op
// on it too.
func BenchmarkKernelWarmSolvePerCP1000(b *testing.B) {
	pop := benchPopulation()
	total := pop.TotalUnconstrainedPerCapita()
	nus := []float64{0.49 * total, 0.5 * total, 0.51 * total}
	w := NewWorkspace(PerCPMaxMin{})
	w.Solve(nus[0], pop)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Solve(nus[i%len(nus)], pop)
	}
}
