package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	publicoption "github.com/netecon-sim/publicoption"
)

// scenarioCmd dispatches the `pubopt scenario` subcommands: list, show and
// run over the declarative scenario registry.
func scenarioCmd(args []string) error {
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "pubopt scenario: missing subcommand")
		scenarioUsage(os.Stderr)
		return errUsage
	}
	switch args[0] {
	case "list":
		for _, s := range publicoption.Scenarios() {
			marker := ""
			if verb, _ := kindVerb(s); verb != "scenario run" {
				marker = fmt.Sprintf(" [run with 'pubopt %s']", verb)
			}
			fmt.Printf("%-26s %s%s\n", s.Name, s.Title, marker)
		}
		return nil
	case "show":
		if len(args) < 2 {
			return fmt.Errorf("scenario show: missing scenario name")
		}
		s, ok := publicoption.ScenarioByName(args[1])
		if !ok {
			return fmt.Errorf("unknown scenario %q (try 'pubopt scenario list')", args[1])
		}
		js, err := s.JSON()
		if err != nil {
			return err
		}
		fmt.Println(string(js))
		return nil
	case "run":
		return scenarioRunCmd(args[1:])
	case "help", "-h", "--help":
		scenarioUsage(os.Stdout)
		return nil
	default:
		fmt.Fprintf(os.Stderr, "pubopt scenario: unknown subcommand %q\n", args[0])
		scenarioUsage(os.Stderr)
		return errUsage
	}
}

func scenarioUsage(w io.Writer) {
	fmt.Fprint(w, `pubopt scenario — declarative market experiments

subcommands:
  list                      list the built-in named scenarios
  show <name>               print a built-in scenario as JSON (edit and
                            re-run it with 'run --json')
  run --name <name> [flags] run a built-in scenario
  run --json <file> [flags] run a scenario from a JSON file ("-" = stdin)

flags for run:
  -format chart|text|csv    output format to stdout (default chart)
  -out DIR                  also write each table as CSV under DIR
  -seed N                   override the population's ensemble seed
                            (0 = the scenario's own value)
  -cps N                    override the population's ensemble size
                            (0 = the scenario's own value)
  -workers N                parallel cells/curves/batches (0 = GOMAXPROCS)
`)
}

func scenarioRunCmd(args []string) error {
	fs := flag.NewFlagSet("scenario run", flag.ContinueOnError)
	name := fs.String("name", "", "built-in scenario name")
	jsonPath := fs.String("json", "", "path to a scenario JSON file (- for stdin)")
	format := fs.String("format", "chart", "output format: chart, text or csv")
	outDir := fs.String("out", "", "directory for CSV output (one file per table)")
	seed := fs.Uint64("seed", 0, "ensemble seed override (0 = scenario value)")
	cps := fs.Int("cps", 0, "ensemble size override (0 = scenario value)")
	workers := fs.Int("workers", 0, "parallelism (0 = GOMAXPROCS)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if (*name == "") == (*jsonPath == "") {
		return fmt.Errorf("scenario run: give exactly one of --name or --json")
	}
	switch *format {
	case "chart", "text", "csv":
	default:
		return fmt.Errorf("unknown format %q (chart, text or csv)", *format)
	}

	s, err := loadScenario("scenario run", *name, *jsonPath)
	if err != nil {
		return err
	}
	if err := s.ApplyEnsembleOverrides(*seed, *cps); err != nil {
		return err
	}

	start := time.Now()
	tables, err := s.Run(publicoption.ScenarioRunOptions{Workers: *workers})
	if err != nil {
		return err
	}
	fmt.Printf("== %s: %s (%.1fs)\n", s.Name, s.Title, time.Since(start).Seconds())
	if s.Reference != "" {
		fmt.Printf("   reference: %s\n", s.Reference)
	}
	fmt.Println()
	for ti, tbl := range tables {
		switch *format {
		case "chart":
			fmt.Println(publicoption.RenderChart(tbl, 90, 22))
		case "text":
			fmt.Println(publicoption.RenderText(tbl, 40))
		case "csv":
			if err := tbl.WriteCSV(os.Stdout); err != nil {
				return err
			}
		}
		if *outDir != "" {
			if err := os.MkdirAll(*outDir, 0o755); err != nil {
				return err
			}
			metric := tbl.YLabel
			if metric == "" {
				metric = fmt.Sprintf("table%d", ti+1)
			}
			path := filepath.Join(*outDir, fmt.Sprintf("%s_%s.csv", s.Name, strings.ReplaceAll(metric, "/", "-")))
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
