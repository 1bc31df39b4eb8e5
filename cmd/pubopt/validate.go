package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	publicoption "github.com/netecon-sim/publicoption"
	"github.com/netecon-sim/publicoption/internal/validate"
)

func validateUsage(w io.Writer) {
	fmt.Fprint(w, `pubopt validate — Tier-2 packet-level verification of solved equilibria

usage:
  pubopt validate <scenario ...> [flags]   validate named built-in scenarios
  pubopt validate -all [flags]             validate every sampleable built-in

Each sampled equilibrium is replayed through the AIMD packet simulator and
per-CP throughput (theta), delivered rate and link utilization are checked
against the fluid solver within tolerance. Exit 1 if any verdict fails.

flags:
  -all                      validate every built-in scenario that keeps
                            per-CP equilibria (batched populations skip)
  -sample N                 sweep cells sampled per scenario (default 3)
  -seed N                   base seed for cell sampling and the simulator
                            (default 1)
  -flows N                  target flow count per replayed link (default 192)
  -tol R                    relative tolerance (0 = default 0.15)
  -abs-tol A                absolute tolerance as a fraction of the link's
                            largest fluid value (0 = default 0.06)
  -cps N                    ensemble size override for random populations
                            (0 = scenario value)
  -workers N                parallel link replays (0 = GOMAXPROCS)
  -format text|csv|json     stdout format (default text)
  -out FILE                 also write the verdict report to FILE (csv, or
                            json when -format json)
`)
}

func validateCmd(args []string) error {
	fs := flag.NewFlagSet("validate", flag.ContinueOnError)
	fs.Usage = func() { validateUsage(os.Stderr) }
	all := fs.Bool("all", false, "validate every sampleable built-in scenario")
	sample := fs.Int("sample", 0, "sweep cells sampled per scenario (0 = default)")
	seed := fs.Uint64("seed", 0, "base seed for sampling and simulation (0 = default)")
	flows := fs.Int("flows", 0, "target flow count per replayed link (0 = default)")
	tol := fs.Float64("tol", 0, "relative tolerance (0 = default)")
	absTol := fs.Float64("abs-tol", 0, "absolute tolerance fraction (0 = default)")
	cps := fs.Int("cps", 0, "ensemble size override (0 = scenario value)")
	workers := fs.Int("workers", 0, "parallel link replays (0 = GOMAXPROCS)")
	format := fs.String("format", "text", "output format: text, csv or json")
	outPath := fs.String("out", "", "also write the verdict report to FILE")
	// Scenario names may precede the flags, runCmd-style.
	var names []string
	var flagArgs []string
	for i, a := range args {
		if strings.HasPrefix(a, "-") {
			flagArgs = args[i:]
			break
		}
		names = append(names, a)
	}
	if err := parseFlags(fs, flagArgs); err != nil {
		return err
	}
	switch *format {
	case "text", "csv", "json":
	default:
		return fmt.Errorf("unknown format %q (text, csv or json)", *format)
	}
	if *all == (len(names) > 0) {
		return fmt.Errorf("validate: give scenario names or -all, not both (try 'pubopt scenario list')")
	}

	opt := validate.Options{
		Samples: *sample,
		Seed:    *seed,
		Flows:   *flows,
		RelTol:  *tol,
		AbsTol:  *absTol,
		Workers: *workers,
	}

	var scenarios []*publicoption.Scenario
	if *all {
		for _, s := range publicoption.Scenarios() {
			if s.Population.Batch > 0 {
				fmt.Printf("== %s: skipped (batched population keeps no per-CP equilibrium)\n", s.Name)
				continue
			}
			if s.IsDynamic() {
				fmt.Printf("== %s: skipped (dynamics simulations have no sweep cells to sample)\n", s.Name)
				continue
			}
			scenarios = append(scenarios, s)
		}
	} else {
		for _, name := range names {
			s, ok := publicoption.ScenarioByName(name)
			if !ok {
				return fmt.Errorf("unknown scenario %q (try 'pubopt scenario list')", name)
			}
			scenarios = append(scenarios, s)
		}
	}

	var reports []*validate.Report
	totalVerdicts, totalFailed := 0, 0
	for _, s := range scenarios {
		if *cps != 0 {
			if err := s.ApplyEnsembleOverrides(0, *cps); err != nil {
				if !*all {
					return err
				}
				// -all sweeps mixed population kinds; fixed populations
				// (archetypes, explicit) simply keep their own size.
			}
		}
		start := time.Now()
		rep, err := validate.Scenario(s, opt)
		if err != nil {
			return err
		}
		reports = append(reports, rep)
		v, f := rep.Counts()
		totalVerdicts += v
		totalFailed += f
		if *format == "text" {
			if err := validate.WriteText(os.Stdout, rep); err != nil {
				return err
			}
			fmt.Printf("   (%.1fs)\n", time.Since(start).Seconds())
		}
	}
	switch *format {
	case "csv":
		if err := validate.WriteCSV(os.Stdout, reports...); err != nil {
			return err
		}
	case "json":
		if err := validate.WriteJSON(os.Stdout, reports...); err != nil {
			return err
		}
	}
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		if *format == "json" {
			err = validate.WriteJSON(f, reports...)
		} else {
			err = validate.WriteCSV(f, reports...)
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *outPath)
	}
	if totalFailed > 0 {
		return fmt.Errorf("validate: %d of %d verdicts failed", totalFailed, totalVerdicts)
	}
	if *format == "text" {
		fmt.Printf("all %d verdicts within tolerance across %d scenarios\n", totalVerdicts, len(reports))
	}
	return nil
}
