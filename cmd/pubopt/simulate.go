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

// simulateCmd dispatches the `pubopt simulate` subcommands: dynamics
// scenarios (a "dynamics" block instead of a sweep axis) run through the
// discrete-time market loop and rendered as time-series charts, long-form
// CSV, or a providers×ticks heatmap.
func simulateCmd(args []string) error {
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "pubopt simulate: missing subcommand")
		simulateUsage(os.Stderr)
		return errUsage
	}
	switch args[0] {
	case "list":
		for _, name := range publicoption.DynamicsScenarioNames() {
			s, _ := publicoption.ScenarioByName(name)
			fmt.Printf("%-26s %s\n", s.Name, s.Title)
		}
		return nil
	case "run":
		return simulateRunCmd(args[1:])
	case "help", "-h", "--help":
		simulateUsage(os.Stdout)
		return nil
	default:
		fmt.Fprintf(os.Stderr, "pubopt simulate: unknown subcommand %q\n", args[0])
		simulateUsage(os.Stderr)
		return errUsage
	}
}

func simulateUsage(w io.Writer) {
	fmt.Fprint(w, `pubopt simulate — discrete-time market dynamics over declarative scenarios

subcommands:
  list                      list the built-in dynamics scenarios
  run --name <name> [flags] simulate a built-in dynamics scenario
  run --json <file> [flags] simulate a scenario from a JSON file ("-" = stdin;
                            any scenario declaring a "dynamics" block)

flags for run:
  -format chart|csv|heatmap output format to stdout (default chart);
                            heatmap renders providers×ticks layers
  -layer NAME               render only this heatmap layer (share, price,
                            psi, or util; default: all)
  -out DIR                  also write each time-series table as CSV under DIR
  -seed N                   override the population's ensemble seed
  -cps N                    override the population's ensemble size
`)
}

func simulateRunCmd(args []string) error {
	fs := flag.NewFlagSet("simulate run", flag.ContinueOnError)
	name := fs.String("name", "", "built-in dynamics scenario name")
	jsonPath := fs.String("json", "", "path to a dynamics scenario JSON file (- for stdin)")
	format := fs.String("format", "chart", "output format: chart, csv or heatmap")
	layer := fs.String("layer", "", "heatmap layer to render (default: all)")
	outDir := fs.String("out", "", "directory for long-form CSV output")
	seed := fs.Uint64("seed", 0, "ensemble seed override (0 = scenario value)")
	cps := fs.Int("cps", 0, "ensemble size override (0 = scenario value)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if (*name == "") == (*jsonPath == "") {
		return fmt.Errorf("simulate run: give exactly one of --name or --json")
	}
	switch *format {
	case "chart", "csv", "heatmap":
	default:
		return fmt.Errorf("unknown format %q (chart, csv or heatmap)", *format)
	}

	s, err := loadScenario("simulate run", *name, *jsonPath)
	if err != nil {
		return err
	}
	if err := s.ApplyEnsembleOverrides(*seed, *cps); err != nil {
		return err
	}

	start := time.Now()
	tr, err := publicoption.Simulate(s, publicoption.SimulateOptions{})
	if err != nil {
		return err
	}
	fmt.Printf("== %s: %s (%d ticks, %.1fs)\n",
		s.Name, s.Title, len(tr.Ticks), time.Since(start).Seconds())
	if s.Reference != "" {
		fmt.Printf("   reference: %s\n", s.Reference)
	}
	fmt.Println()

	tables := tr.Tables()
	switch *format {
	case "chart":
		for _, tbl := range tables {
			fmt.Println(publicoption.RenderChart(tbl, 90, 22))
		}
	case "csv":
		for _, tbl := range tables {
			if err := tbl.WriteCSV(os.Stdout); err != nil {
				return err
			}
		}
	case "heatmap":
		grid := tr.Grid()
		if *layer != "" {
			fmt.Println(publicoption.RenderHeatmap(grid, *layer))
		} else {
			for _, l := range grid.Layers {
				fmt.Println(publicoption.RenderHeatmap(grid, l.Name))
			}
		}
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return err
		}
		for ti, tbl := range tables {
			path := filepath.Join(*outDir, fmt.Sprintf("%s_sim_table%d.csv", s.Name, ti+1))
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			if err := tbl.WriteCSV(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Printf("   wrote %s\n", path)
		}
	}
	return nil
}
