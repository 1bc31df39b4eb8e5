package dynamics

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"github.com/netecon-sim/publicoption/internal/obs"
	"github.com/netecon-sim/publicoption/internal/scenario"
)

func getScenario(t *testing.T, name string) *scenario.Scenario {
	t.Helper()
	sc, ok := scenario.Get(name)
	if !ok {
		t.Fatalf("built-in scenario %q missing", name)
	}
	return sc
}

func runScenario(t *testing.T, sc *scenario.Scenario) *Trajectory {
	t.Helper()
	tr, err := Run(sc, Options{})
	if err != nil {
		t.Fatalf("Run(%s): %v", sc.Name, err)
	}
	if len(tr.Ticks) != sc.Dynamics.Ticks {
		t.Fatalf("Run(%s): %d ticks, want %d", sc.Name, len(tr.Ticks), sc.Dynamics.Ticks)
	}
	return tr
}

// TestFixedPointAgreement is the battery's headline invariant: every
// convergent built-in dynamic scenario's trajectory limit is a fixed point
// of the loop, and a fixed point of partial adjustment is exactly the
// static Theorem-1/Assumption-5 equilibrium of its own frozen state — so
// re-solving the market one-shot at the final record must reproduce the
// final shares within 1e-6.
func TestFixedPointAgreement(t *testing.T) {
	converged := 0
	for _, name := range scenario.DynamicsNames() {
		sc := getScenario(t, name)
		tr := runScenario(t, sc)
		if !tr.Converged(5, 1e-9) {
			t.Logf("%s: transient at tick %d (by design for shock/cycle scenarios)", name, len(tr.Ticks))
			continue
		}
		converged++
		last := tr.Ticks[len(tr.Ticks)-1]
		gap, err := FixedPointGap(sc, last)
		if err != nil {
			t.Fatalf("%s: FixedPointGap: %v", name, err)
		}
		if gap > 1e-6 {
			t.Errorf("%s: converged trajectory sits %g from the static equilibrium, want ≤ 1e-6", name, gap)
		}
	}
	if converged == 0 {
		t.Fatal("no built-in dynamic scenario converged; the fixed-point battery asserted nothing")
	}
}

// TestFixedPointGapFalsifiable doctors the loop and checks the battery's
// metric actually fires: a trajectory whose shares are nudged off the
// migration equilibrium every tick (a biased actuator) must report a gap
// far above the 1e-6 agreement bound, and so must a hand-perturbed record.
// Without this, a FixedPointGap that silently returned 0 would pass the
// agreement test vacuously.
func TestFixedPointGapFalsifiable(t *testing.T) {
	sc := getScenario(t, "dyn-convergence")
	e, err := New(sc)
	if err != nil {
		t.Fatal(err)
	}
	var last TickRecord
	for e.Tick() < e.Ticks() {
		last = e.Step()
		// Doctored loop: drain 0.5% of provider 0's share into provider 1
		// after every tick, as a buggy actuator would.
		e.shares[0] -= 0.005
		e.shares[1] += 0.005
		last.Shares[0] -= 0.005
		last.Shares[1] += 0.005
	}
	gap, err := FixedPointGap(sc, last)
	if err != nil {
		t.Fatal(err)
	}
	if gap <= 1e-6 {
		t.Fatalf("doctored trajectory reports gap %g; the agreement test could never fail", gap)
	}

	// And a single perturbed record, independent of the loop.
	tr := runScenario(t, sc)
	rec := tr.Ticks[len(tr.Ticks)-1]
	rec.Shares = append([]float64(nil), rec.Shares...)
	rec.Shares[0] += 1e-3
	rec.Shares[1] -= 1e-3
	gap, err = FixedPointGap(sc, rec)
	if err != nil {
		t.Fatal(err)
	}
	if gap <= 1e-6 {
		t.Fatalf("perturbed record reports gap %g, want > 1e-6", gap)
	}
}

// TestTrajectoryDeterministic pins the determinism contract: the same
// scenario (including a seeded noise process) produces the bit-identical
// trajectory on every run.
func TestTrajectoryDeterministic(t *testing.T) {
	sc := getScenario(t, "dyn-demand-shock")
	sc.Dynamics.Traffic = &scenario.TrafficSpec{
		Process: scenario.TrafficNoise, Amplitude: 0.3, Seed: 11,
	}
	marshal := func(tr *Trajectory) string {
		b, err := json.Marshal(tr)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	base := marshal(runScenario(t, sc))
	if got := marshal(runScenario(t, sc)); got != base {
		t.Fatal("identical reruns produced different trajectories")
	}

	// Falsifiability of the comparison itself: a different noise seed must
	// change the trajectory.
	sc.Dynamics.Traffic.Seed = 12
	if got := marshal(runScenario(t, sc)); got == base {
		t.Fatal("different noise seeds produced identical trajectories")
	}
}

// TestRestoreContinuesTrajectory checks TickRecord's role as resume state:
// a fresh engine restored from a mid-run record and stepped to the end
// lands on the uninterrupted trajectory (within the warm-start tolerance
// Engine.Restore documents — warm brackets are path-dependent at ~1e-9 per
// solve, so economically the trajectories are identical).
func TestRestoreContinuesTrajectory(t *testing.T) {
	for _, name := range []string{"dyn-convergence", "dyn-demand-shock"} {
		sc := getScenario(t, name)
		full := runScenario(t, sc)
		mid := len(full.Ticks) / 2

		e, err := New(sc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := e.Restore(full.Ticks[mid]); err != nil {
			t.Fatalf("%s: Restore: %v", name, err)
		}
		if e.Tick() != mid+1 {
			t.Fatalf("%s: restored to tick %d, want %d", name, e.Tick(), mid+1)
		}
		var last TickRecord
		for e.Tick() < e.Ticks() {
			last = e.Step()
		}
		want := full.Ticks[len(full.Ticks)-1]
		for k := range want.Shares {
			if math.Abs(last.Shares[k]-want.Shares[k]) > 1e-6 {
				t.Errorf("%s: resumed share[%d]=%g, uninterrupted %g", name, k, last.Shares[k], want.Shares[k])
			}
			if math.Abs(last.Caps[k]-want.Caps[k]) > 1e-6 {
				t.Errorf("%s: resumed caps[%d]=%g, uninterrupted %g", name, k, last.Caps[k], want.Caps[k])
			}
			if math.Abs(last.Prices[k]-want.Prices[k]) > 1e-6 {
				t.Errorf("%s: resumed price[%d]=%g, uninterrupted %g", name, k, last.Prices[k], want.Prices[k])
			}
		}
	}
}

// TestRestoreRejectsBadRecords pins Restore's input contract.
func TestRestoreRejectsBadRecords(t *testing.T) {
	sc := getScenario(t, "dyn-convergence")
	e, err := New(sc)
	if err != nil {
		t.Fatal(err)
	}
	rec := e.Step()
	if err := e.Restore(TickRecord{Tick: -1}); err == nil {
		t.Error("negative tick accepted")
	}
	if err := e.Restore(TickRecord{Tick: sc.Dynamics.Ticks}); err == nil {
		t.Error("past-the-end tick accepted")
	}
	bad := rec
	bad.Shares = bad.Shares[:1]
	if err := e.Restore(bad); err == nil {
		t.Error("shape-mismatched record accepted")
	}
}

// TestTickInvariants checks per-tick sanity over every builtin: shares
// sum to 1 and stay in [0,1], prices stay within [0, v_max], capacities
// stay positive, and the solver telemetry delta is attributed per tick.
func TestTickInvariants(t *testing.T) {
	for _, name := range scenario.DynamicsNames() {
		sc := getScenario(t, name)
		var sink obs.Counters
		tr, err := Run(sc, Options{Stats: &sink})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var tickSolves uint64
		for i := range tr.Ticks {
			rec := &tr.Ticks[i]
			var sum float64
			for k, m := range rec.Shares {
				if m < 0 || m > 1 || math.IsNaN(m) {
					t.Fatalf("%s tick %d: share[%d]=%g", name, rec.Tick, k, m)
				}
				sum += m
			}
			if math.Abs(sum-1) > 1e-12 {
				t.Fatalf("%s tick %d: shares sum to %g", name, rec.Tick, sum)
			}
			for k, c := range rec.Prices {
				if c < 0 || math.IsNaN(c) {
					t.Fatalf("%s tick %d: price[%d]=%g", name, rec.Tick, k, c)
				}
			}
			for k, cap := range rec.Caps {
				if !(cap > 0) {
					t.Fatalf("%s tick %d: caps[%d]=%g", name, rec.Tick, k, cap)
				}
			}
			if rec.Solver.Solves == 0 {
				t.Fatalf("%s tick %d: no per-tick solver delta recorded", name, rec.Tick)
			}
			tickSolves += rec.Solver.Solves
		}
		// The per-tick deltas must tile the run total exactly.
		if total := sink.Snapshot().Solves; total != tickSolves {
			t.Fatalf("%s: tick deltas sum to %d solves, run total %d", name, tickSolves, total)
		}
	}
}

// TestGradientStaysWithinPriceBounds pins the oscillation scenario's
// interior limit cycle: the gradient re-pricer must keep moving (no
// convergence) yet never slam into the clamps [0, v_max] — a degenerate
// clamp-to-clamp ping-pong would make the scenario meaningless.
func TestGradientStaysWithinPriceBounds(t *testing.T) {
	sc := getScenario(t, "dyn-oscillation")
	tr := runScenario(t, sc)
	if tr.Converged(5, 1e-9) {
		t.Fatal("dyn-oscillation converged; it exists to exhibit a limit cycle")
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := range tr.Ticks {
		c := tr.Ticks[i].Prices[0]
		lo = math.Min(lo, c)
		hi = math.Max(hi, c)
	}
	if !(lo > 0.01) || !(hi < 0.99) {
		t.Fatalf("oscillation prices span [%g, %g]; the cycle must stay interior", lo, hi)
	}
	if hi-lo < 0.05 {
		t.Fatalf("oscillation price swing %g too small to be a limit cycle", hi-lo)
	}
}

// TestNewRejectsStaticScenario pins the dispatch boundary from this side;
// scenario.Run holds the mirror-image rejection.
func TestNewRejectsStaticScenario(t *testing.T) {
	sc := getScenario(t, "public-option-duopoly")
	if _, err := New(sc); err == nil || !strings.Contains(err.Error(), "dynamics") {
		t.Fatalf("static scenario accepted by dynamics.New (err=%v)", err)
	}
}

// TestStepPanicsPastEnd pins the engine's hard stop.
func TestStepPanicsPastEnd(t *testing.T) {
	sc := getScenario(t, "dyn-convergence")
	sc.Dynamics.Ticks = 1
	e, err := New(sc)
	if err != nil {
		t.Fatal(err)
	}
	e.Step()
	defer func() {
		if recover() == nil {
			t.Error("Step past the configured tick count did not panic")
		}
	}()
	e.Step()
}

// TestTablesAndGridShapes checks the render surface: one table per
// recorded metric plus the controls table, and a providers×ticks grid with
// every layer filled.
func TestTablesAndGridShapes(t *testing.T) {
	sc := getScenario(t, "dyn-po-entry")
	tr := runScenario(t, sc)
	tables := tr.Tables()
	if want := len(sc.Sweep.Metrics) + 1; len(tables) != want {
		t.Fatalf("Tables: %d tables, want %d (metrics + controls)", len(tables), want)
	}
	for _, tbl := range tables {
		if len(tbl.Series) == 0 {
			t.Fatalf("table %q has no series", tbl.Title)
		}
		for _, s := range tbl.Series {
			if len(s.X) != len(tr.Ticks) {
				t.Fatalf("table %q series %q has %d points, want %d", tbl.Title, s.Name, len(s.X), len(tr.Ticks))
			}
		}
	}
	g := tr.Grid()
	if len(g.Xs) != len(tr.Ticks) || len(g.Ys) != len(tr.Providers) {
		t.Fatalf("Grid: %dx%d, want %dx%d", len(g.Xs), len(g.Ys), len(tr.Ticks), len(tr.Providers))
	}
	if len(g.Layers) != len(GridLayers) {
		t.Fatalf("Grid: %d layers, want %d", len(g.Layers), len(GridLayers))
	}
}

// Converged reports whether the trajectory settled: over the final window+1
// records, no share, price, or capacity moved by more than tol between
// consecutive ticks. False when the trajectory is shorter than the window.
func (tr *Trajectory) Converged(window int, tol float64) bool {
	if window < 1 || len(tr.Ticks) < window+1 {
		return false
	}
	for i := len(tr.Ticks) - window; i < len(tr.Ticks); i++ {
		prev, cur := &tr.Ticks[i-1], &tr.Ticks[i]
		for k := range cur.Shares {
			if math.Abs(cur.Shares[k]-prev.Shares[k]) > tol ||
				math.Abs(cur.Prices[k]-prev.Prices[k]) > tol ||
				math.Abs(cur.Caps[k]-prev.Caps[k]) > tol {
				return false
			}
		}
	}
	return true
}
