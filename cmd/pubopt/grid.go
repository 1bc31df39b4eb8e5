package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	publicoption "github.com/netecon-sim/publicoption"
)

// gridCmd dispatches the `pubopt grid` subcommands: 2-D grid scenarios
// (a column axis × a row axis) solved on the work-stealing row runner and
// rendered as ASCII heatmaps or long-form CSV.
func gridCmd(args []string) error {
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "pubopt grid: missing subcommand")
		gridUsage(os.Stderr)
		return errUsage
	}
	switch args[0] {
	case "list":
		for _, name := range publicoption.GridScenarioNames() {
			s, _ := publicoption.ScenarioByName(name)
			fmt.Printf("%-26s %s\n", s.Name, s.Title)
		}
		return nil
	case "run":
		return gridRunCmd(args[1:])
	case "help", "-h", "--help":
		gridUsage(os.Stdout)
		return nil
	default:
		fmt.Fprintf(os.Stderr, "pubopt grid: unknown subcommand %q\n", args[0])
		gridUsage(os.Stderr)
		return errUsage
	}
}

func gridUsage(w io.Writer) {
	fmt.Fprint(w, `pubopt grid — 2-D grid sweeps over declarative scenarios

subcommands:
  list                      list the built-in grid scenarios
  run --name <name> [flags] run a built-in grid scenario
  run --json <file> [flags] run a grid scenario from a JSON file ("-" = stdin;
                            any scenario whose sweep declares a "grid" row axis)

flags for run:
  -format heatmap|csv       output format to stdout (default heatmap)
  -layer NAME               render only this layer's heatmap (default: all);
                            layers are "phi" or metric/provider, e.g.
                            "share/public-option"
  -out DIR                  also write the grid as long-form CSV under DIR
  -seed N                   override the population's ensemble seed
  -cps N                    override the population's ensemble size
  -workers N                parallel cells, work-stealing (0 = GOMAXPROCS)
  -refine                   adaptive refinement: treat the declared grid as
                            a seed, split only cells where the surface
                            bends, and interpolate the rest (sub-linear in
                            output resolution; see docs/REFINEMENT.md)
  -tol F, -depth N,         refinement overrides (0 = the scenario's
  -probes N                 sweep.grid.refine block, or package defaults)
  -res CxR                  flatten the refined surface at C×R instead of
                            the full fine-lattice resolution
`)
}

func gridRunCmd(args []string) error {
	fs := flag.NewFlagSet("grid run", flag.ContinueOnError)
	name := fs.String("name", "", "built-in grid scenario name")
	jsonPath := fs.String("json", "", "path to a grid scenario JSON file (- for stdin)")
	format := fs.String("format", "heatmap", "output format: heatmap or csv")
	layer := fs.String("layer", "", "heatmap layer to render (default: all)")
	outDir := fs.String("out", "", "directory for long-form CSV output")
	seed := fs.Uint64("seed", 0, "ensemble seed override (0 = scenario value)")
	cps := fs.Int("cps", 0, "ensemble size override (0 = scenario value)")
	workers := fs.Int("workers", 0, "parallel cells (0 = GOMAXPROCS)")
	refineFlag := fs.Bool("refine", false, "adaptive refinement instead of dense solving")
	tol := fs.Float64("tol", 0, "refinement tolerance override (0 = scenario value or default)")
	depth := fs.Int("depth", 0, "refinement depth cap override (0 = scenario value or default)")
	probes := fs.Int("probes", 0, "verification probe budget override (0 = scenario value or default, -1 disables)")
	res := fs.String("res", "", "flatten resolution COLSxROWS for refined output (default: the fine lattice)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	//pubopt:allow(floatcmp): 0 is the exact "flag not set" sentinel (flag default)
	if !*refineFlag && (*tol != 0 || *depth != 0 || *probes != 0 || *res != "") {
		return fmt.Errorf("grid run: -tol, -depth, -probes and -res require -refine")
	}
	if (*name == "") == (*jsonPath == "") {
		return fmt.Errorf("grid run: give exactly one of --name or --json")
	}
	switch *format {
	case "heatmap", "csv":
	default:
		return fmt.Errorf("unknown format %q (heatmap or csv)", *format)
	}

	s, err := loadScenario("grid run", *name, *jsonPath)
	if err != nil {
		return err
	}
	if err := s.ApplyEnsembleOverrides(*seed, *cps); err != nil {
		return err
	}

	start := time.Now()
	var grid *publicoption.ResultGrid
	if *refineFlag {
		grid, err = runRefinedGrid(s, *workers, *tol, *depth, *probes, *res, start)
	} else {
		grid, err = s.RunGrid(publicoption.ScenarioRunOptions{Workers: *workers})
		if err == nil {
			fmt.Printf("== %s: %s (%d cells = %d×%d, %.1fs)\n",
				s.Name, s.Title, grid.Cells(), len(grid.Xs), len(grid.Ys), time.Since(start).Seconds())
		}
	}
	if err != nil {
		return err
	}
	if s.Reference != "" {
		fmt.Printf("   reference: %s\n", s.Reference)
	}
	fmt.Println()

	switch *format {
	case "heatmap":
		if *layer != "" {
			fmt.Println(publicoption.RenderHeatmap(grid, *layer))
		} else {
			for _, l := range grid.Layers {
				fmt.Println(publicoption.RenderHeatmap(grid, l.Name))
			}
		}
	case "csv":
		if err := grid.WriteCSV(os.Stdout); err != nil {
			return err
		}
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return err
		}
		path := filepath.Join(*outDir, fmt.Sprintf("%s_grid.csv", s.Name))
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := grid.WriteCSV(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("   wrote %s\n", path)
	}
	return nil
}

// runRefinedGrid runs the scenario through the adaptive-refinement engine
// and flattens the surrogate back to a dense grid for the normal renderers.
// CLI flags override the scenario's own refine block field-by-field.
func runRefinedGrid(s *publicoption.Scenario, workers int, tol float64, depth, probes int, res string, start time.Time) (*publicoption.ResultGrid, error) {
	if s.Sweep.Grid.Refine == nil {
		s.Sweep.Grid.Refine = &publicoption.ScenarioRefine{}
	}
	r := s.Sweep.Grid.Refine
	if tol != 0 { //pubopt:allow(floatcmp): 0 is the exact "flag not set" sentinel (flag default)
		r.Tolerance = tol
	}
	if depth != 0 {
		r.MaxDepth = depth
	}
	if probes != 0 {
		r.Probes = probes
	}
	result, err := s.RunGridRefined(publicoption.ScenarioRunOptions{Workers: workers})
	if err != nil {
		return nil, err
	}
	nx, ny := result.FineDims()
	if res != "" {
		if nx, ny, err = parseResolution(res); err != nil {
			return nil, err
		}
	}
	st := result.Stats()
	fineXs, fineYs := result.FineDims()
	fmt.Printf("== %s: %s (refined %d×%d seed to %d×%d, %.1fs)\n",
		s.Name, s.Title, len(s.Sweep.XValues()), len(s.Sweep.Grid.RowValues()),
		fineXs, fineYs, time.Since(start).Seconds())
	verdict := "unverified"
	if result.Verified() {
		verdict = "verified"
	}
	fmt.Printf("   solved %d points (+%d probes), reused %d, %d leaves; max error %.3g of tol %g (%s)\n",
		st.PointsSolved, st.ProbeSolves, st.PointsReused, st.Leaves(),
		result.MaxError(), result.Tolerance(), verdict)
	return result.Flatten(nx, ny), nil
}

// parseResolution parses a COLSxROWS flattening resolution like "80x40".
func parseResolution(res string) (nx, ny int, err error) {
	if _, err := fmt.Sscanf(res, "%dx%d", &nx, &ny); err != nil || nx < 2 || ny < 2 {
		return 0, 0, fmt.Errorf("bad -res %q: want COLSxROWS with both at least 2 (e.g. 80x40)", res)
	}
	return nx, ny, nil
}
