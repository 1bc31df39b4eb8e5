package dynamics

import (
	"runtime"
	"testing"

	"github.com/netecon-sim/publicoption/internal/scenario"
)

// BenchmarkSimulate times full built-in trajectories and reports the
// per-tick cost — the number CI publishes in BENCH_dynamics.json. The
// -benchmem allocs/op figure is the whole-run budget: per tick it is
// dominated by the TickRecord's result slices (inherent: records are
// returned to the caller), while the tick-internal hot path (scalePop,
// advanceShares) is pinned allocation-free by TestTickHotPathZeroAlloc and
// the hotpathalloc analyzer.
func BenchmarkSimulate(b *testing.B) {
	for _, name := range []string{"dyn-convergence", "dyn-demand-shock"} {
		sc, ok := scenario.Get(name)
		if !ok {
			b.Fatalf("built-in scenario %q missing", name)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Run(sc, Options{}); err != nil {
					b.Fatal(err)
				}
			}
			perTick := float64(b.Elapsed().Nanoseconds()) / float64(b.N*sc.Dynamics.Ticks)
			b.ReportMetric(perTick, "ns/tick")
		})
	}
}

// TestTickHotPathZeroAlloc pins the //pubopt:hotpath functions — the only
// per-tick code that runs outside the solver kernels — at zero heap
// allocations, the dynamic counterpart of the hotpathalloc static gate.
func TestTickHotPathZeroAlloc(t *testing.T) {
	sc, ok := scenario.Get("dyn-convergence")
	if !ok {
		t.Fatal("built-in scenario dyn-convergence missing")
	}
	e, err := New(sc)
	if err != nil {
		t.Fatal(err)
	}
	e.Step() // warm every lazily-built buffer
	target := append([]float64(nil), e.shares...)
	if allocs := testing.AllocsPerRun(100, func() {
		e.scalePop(1.25)
		e.advanceShares(target)
	}); allocs != 0 {
		t.Fatalf("tick hot path allocates %v times per run, want 0", allocs)
	}
}

// budgetTickBytes is the byte budget of a warm dyn-convergence tick (160
// CPs, two providers), averaged over its last 44 ticks. Measured: 1,456 B
// per tick, the TickRecord's slices among them. The budget is about 2.8×
// that, room for a few small allocations but not for one per-CP buffer:
// cloning one 160-CP class equilibrium costs about 14 KiB.
const budgetTickBytes = 4 << 10

// TestTickWarmBytes bounds the heap bytes of a warm Engine.Step: the
// market is solved into the engine's own outcome and each provider is
// observed on the solver's pooled equilibrium, so a tick allocates no
// per-CP buffer.
func TestTickWarmBytes(t *testing.T) {
	sc, ok := scenario.Get("dyn-convergence")
	if !ok {
		t.Fatal("built-in scenario dyn-convergence missing")
	}
	e, err := New(sc)
	if err != nil {
		t.Fatal(err)
	}
	const warm = 4
	for range warm {
		e.Step()
	}
	ticks := uint64(e.Ticks() - warm)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // as testing.AllocsPerRun does
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for e.Tick() < e.Ticks() {
		e.Step()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / ticks
	t.Logf("%d ticks: %d B per warm tick", ticks, bytes)
	if bytes > budgetTickBytes {
		t.Errorf("%d B per warm dyn-convergence tick, budget %d", bytes, budgetTickBytes)
	}
}
