package main

import (
	"flag"
	"fmt"
	"sort"

	publicoption "github.com/netecon-sim/publicoption"
)

// queryCmd implements `pubopt query`: evaluate one point of a 2-D grid
// scenario the way GET /v1/query does — through the adaptive-refinement
// surrogate when its error bound is verified, else by solving the point.
// The surrogate is built on the spot (one refinement run), so a single
// invocation costs about as much as a refined grid run; the long-running
// server's GET /v1/query amortizes that build across every later query.
func queryCmd(args []string) error {
	fs := flag.NewFlagSet("query", flag.ContinueOnError)
	name := fs.String("name", "", "built-in grid scenario name")
	jsonPath := fs.String("json", "", "path to a grid scenario JSON file (- for stdin)")
	x := fs.Float64("x", 0, "column-axis coordinate (resolved model units)")
	y := fs.Float64("y", 0, "row-axis coordinate (resolved model units)")
	seed := fs.Uint64("seed", 0, "ensemble seed override (0 = scenario value)")
	cps := fs.Int("cps", 0, "ensemble size override (0 = scenario value)")
	workers := fs.Int("workers", 0, "parallel cells (0 = GOMAXPROCS)")
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: pubopt query --name <name> | --json <file>  -x X -y Y [flags]")
		fs.PrintDefaults()
	}
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if (*name == "") == (*jsonPath == "") {
		return usageErrorf("pubopt query: give exactly one of --name or --json")
	}

	// Queries interpolate a grid's refinement surrogate, so they take the
	// scenarios 'pubopt grid run' does.
	s, err := loadScenario("grid run", *name, *jsonPath)
	if err != nil {
		return err
	}
	if err := s.ApplyEnsembleOverrides(*seed, *cps); err != nil {
		return err
	}

	result, err := s.RunGridRefined(publicoption.ScenarioRunOptions{Workers: *workers})
	if err != nil {
		return err
	}
	vals, err := result.Values(*x, *y)
	if err != nil {
		x0, x1, y0, y1 := result.Bounds()
		return fmt.Errorf("%v (domain: x in [%g, %g], y in [%g, %g])", err, x0, x1, y0, y1)
	}
	source := "surrogate"
	if !result.Verified() {
		// The error bound does not hold: answer with one point solve on a
		// fresh solver, the unit GET /v1/query caches for its fallback.
		job, err := s.CompileGrid()
		if err != nil {
			return err
		}
		vals, _ = job.ValuesSlice(job.NewWorker().SolveAt(*x, *y))
		source = "solve"
	}

	layers := result.Layers()
	order := make([]int, len(layers))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return layers[order[a]] < layers[order[b]] })
	fmt.Printf("== %s at (%s=%g, %s=%g)\n", s.Name, s.Sweep.Axis, *x, s.Sweep.Grid.Axis, *y)
	for _, li := range order {
		fmt.Printf("   %-24s %.6g\n", layers[li], vals[li])
	}
	fmt.Printf("   source: %s\n", source)
	st := result.Stats()
	verdict := "unverified: answered by a point solve"
	if result.Verified() {
		verdict = "verified"
	}
	fmt.Printf("   surrogate: %d solves (+%d probes), max error %.3g of tol %g (%s)\n",
		st.PointsSolved, st.ProbeSolves, result.MaxError(), result.Tolerance(), verdict)
	return nil
}
