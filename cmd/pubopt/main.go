// Command pubopt regenerates the figures of Ma & Misra, "The Public Option:
// a Non-regulatory Alternative to Network Neutrality" (CoNEXT 2011) — each
// market figure is a built-in scenario, e.g. `pubopt grid run --name fig4` —
// and runs, serves and validates declarative market scenarios.
//
// Usage:
//
//	pubopt scenario list
//	pubopt scenario show <name>
//	pubopt scenario run --name <name> | --json <file>  [-format ...] [-out DIR]
//	                                   [-seed N] [-cps N] [-workers N]
//	pubopt grid list
//	pubopt grid run --name <name> | --json <file>  [-format heatmap|csv]
//	                                   [-layer NAME] [-out DIR]
//	                                   [-seed N] [-cps N] [-workers N]
//	                                   [-refine [-tol F] [-depth N]
//	                                   [-probes N] [-res CxR]]
//	pubopt query --name <name> | --json <file>  -x X -y Y
//	                                   [-seed N] [-cps N] [-workers N]
//	pubopt simulate list
//	pubopt simulate run --name <name> | --json <file>  [-format chart|csv|heatmap]
//	                                   [-layer NAME] [-out DIR]
//	                                   [-seed N] [-cps N]
//	pubopt serve [-addr HOST:PORT] [-workers N] [-cache-entries N]
//	             [-log-level LEVEL] [-log-format text|json] [-trace]
//	             [-events N] [-pprof]
//
// With -out, results are also written as CSV into DIR; otherwise they
// render to stdout in the chosen format.
//
// Exit codes: 0 on success (including help), 1 on runtime errors, 2 on
// usage errors (missing or unknown commands, bad flags).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	publicoption "github.com/netecon-sim/publicoption"
)

// errUsage marks usage errors: the message and usage text have already been
// printed to stderr, so main exits 2 without the generic error prefix.
var errUsage = errors.New("usage error")

// usageErrorf prints the problem to stderr and returns errUsage, so the
// caller's error propagates to a silent exit-2 in main.
func usageErrorf(format string, args ...any) error {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	return errUsage
}

// parseFlags classifies FlagSet errors: -h stays flag.ErrHelp (exit 0);
// any other parse failure — already printed by the FlagSet — becomes a
// usage error (exit 2).
func parseFlags(fs *flag.FlagSet, args []string) error {
	err := fs.Parse(args)
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return err
	}
	return errUsage
}

func main() {
	switch err := run(os.Args[1:]); {
	case err == nil:
	case errors.Is(err, errUsage):
		os.Exit(2)
	case errors.Is(err, flag.ErrHelp):
		// A subcommand's -h: the FlagSet already printed its defaults.
		os.Exit(0)
	default:
		fmt.Fprintln(os.Stderr, "pubopt:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "pubopt: missing command")
		usage(os.Stderr)
		return errUsage
	}
	switch args[0] {
	case "scenario":
		return scenarioCmd(args[1:])
	case "grid":
		return gridCmd(args[1:])
	case "query":
		return queryCmd(args[1:])
	case "simulate":
		return simulateCmd(args[1:])
	case "verify":
		return verifyCmd(args[1:])
	case "validate":
		return validateCmd(args[1:])
	case "serve":
		return serveCmd(args[1:])
	case "help", "-h", "--help":
		usage(os.Stdout)
		return nil
	default:
		fmt.Fprintf(os.Stderr, "pubopt: unknown command %q\n", args[0])
		usage(os.Stderr)
		return errUsage
	}
}

func usage(w io.Writer) {
	fmt.Fprint(w, `pubopt — reproduce the figures of "The Public Option" (CoNEXT 2011)

commands:
  scenario <subcmd>         declarative market scenarios: list, show,
                            run --name <name> | --json <file>
  grid <subcmd>             2-D grid sweeps (γ×ν, σ×ν, c×κ, ...) and the
                            paper's figures (fig4 ... fig12): list,
                            run --name <name> | --json <file>; -refine
                            switches to adaptive refinement
  query --name <name> -x X -y Y
                            evaluate one grid point via the refinement
                            surrogate (see docs/REFINEMENT.md)
  simulate <subcmd>         discrete-time market dynamics (policies,
                            traffic, autoscaling; see docs/DYNAMICS.md):
                            list, run --name <name> | --json <file>
  serve [flags]             HTTP query service with a content-addressed
                            equilibrium cache (see docs/SERVICE.md)
  verify [seed]             run the theorem battery (Axioms 1-4, Theorems
                            1-5, Lemma 4, the headline ranking, Assumption 2)
  validate <scenario ...>   replay solved equilibria through the packet
                            simulator and check fluid/packet agreement
                            (Tier-2; see 'pubopt validate -h')

'pubopt <command> -h' lists a command's flags.

flags for serve:
  -addr HOST:PORT           listen address (default :8080)
  -workers N                max concurrent solves (default GOMAXPROCS)
  -cache-entries N          equilibrium cache LRU bound (default 2048;
                            a dense grid cell is one entry;
                            negative disables caching)
  -log-level LEVEL          debug, info, warn or error (default info;
                            debug adds per-request access lines)
  -log-format text|json     structured log output format (default text)
  -trace                    echo trace IDs in response bodies (the
                            X-Trace-Id header is always set)
  -events N                 flight recorder capacity at /debug/events
                            (default 256; negative disables)
  -pprof                    expose /debug/pprof/ (trusted networks only)
`)
}

// kindVerb returns the command that runs scenarios of s's kind, and how
// an error message names that kind.
func kindVerb(s *publicoption.Scenario) (verb, kind string) {
	switch {
	case s.IsGrid():
		return "grid run", "declares a 2-D grid sweep"
	case s.IsDynamic():
		return "simulate run", "is a dynamics simulation"
	}
	return "scenario run", "declares a 1-D sweep"
}

// loadScenario returns the built-in called name, or the scenario in the
// JSON file at jsonPath ("-" reads stdin), for a command that runs
// scenarios of one kind: verb is "scenario run", "grid run" or
// "simulate run". A scenario of another kind is refused with the command
// that runs it.
func loadScenario(verb, name, jsonPath string) (*publicoption.Scenario, error) {
	var (
		s   *publicoption.Scenario
		err error
	)
	switch {
	case name != "":
		var ok bool
		if s, ok = publicoption.ScenarioByName(name); !ok {
			return nil, fmt.Errorf("unknown scenario %q (try 'pubopt %s list')", name, strings.Fields(verb)[0])
		}
	case jsonPath == "-":
		s, err = publicoption.LoadScenario(os.Stdin)
	default:
		f, ferr := os.Open(jsonPath)
		if ferr != nil {
			return nil, ferr
		}
		s, err = publicoption.LoadScenario(f)
		f.Close()
	}
	if err != nil {
		return nil, err
	}
	if want, kind := kindVerb(s); want != verb {
		return nil, fmt.Errorf("scenario %q %s; run it with 'pubopt %s'", s.Name, kind, want)
	}
	return s, nil
}
