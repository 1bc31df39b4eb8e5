package main

import (
	"encoding/csv"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// quiet silences the command's stdout/stderr for the duration of the test;
// assertions look at return values and the filesystem, not terminal output.
func quiet(t *testing.T) {
	t.Helper()
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	oldOut, oldErr := os.Stdout, os.Stderr
	os.Stdout, os.Stderr = devnull, devnull
	t.Cleanup(func() {
		os.Stdout, os.Stderr = oldOut, oldErr
		devnull.Close()
	})
}

func TestRunArgumentErrors(t *testing.T) {
	cases := []struct {
		name     string
		args     []string
		wantErr  string // substring of the error; "" means success
		usage    bool   // expect the errUsage sentinel (exit 2)
		wantHelp bool   // expect flag.ErrHelp (exit 0)
	}{
		{name: "no args", args: nil, usage: true},
		{name: "unknown command", args: []string{"frobnicate"}, usage: true},
		{name: "help", args: []string{"help"}},
		{name: "help short flag", args: []string{"-h"}},
		// The figure reproductions are built-in scenarios now; the verbs
		// that ran them are gone.
		{name: "list", args: []string{"list"}, usage: true},
		{name: "subcommand help flag", args: []string{"serve", "-h"}, wantHelp: true},

		{name: "run without ids", args: []string{"run"}, usage: true},
		{name: "run unknown id", args: []string{"run", "fig99"}, usage: true},
		{name: "run bad flag", args: []string{"run", "fig4", "-bogus"}, usage: true},

		{name: "scenario without subcommand", args: []string{"scenario"}, usage: true},
		{name: "scenario unknown subcommand", args: []string{"scenario", "frobnicate"}, usage: true},
		{name: "scenario show without name", args: []string{"scenario", "show"}, wantErr: "missing scenario name"},
		{name: "scenario show unknown", args: []string{"scenario", "show", "no-such"}, wantErr: `unknown scenario "no-such"`},
		{name: "scenario list", args: []string{"scenario", "list"}},
		{name: "scenario run neither source", args: []string{"scenario", "run"}, wantErr: "exactly one of --name or --json"},
		{name: "scenario run both sources", args: []string{"scenario", "run", "--name", "x", "--json", "y"}, wantErr: "exactly one of --name or --json"},
		{name: "scenario run unknown name", args: []string{"scenario", "run", "--name", "no-such"}, wantErr: `unknown scenario "no-such"`},
		{name: "scenario run bad format", args: []string{"scenario", "run", "--name", "neutral-baseline", "-format", "bogus"}, wantErr: `unknown format "bogus"`},
		{name: "scenario run override without ensemble", args: []string{"scenario", "run", "--name", "archetypes-capacity", "-seed", "7"}, wantErr: "has no ensemble seed"},
		{name: "scenario run missing json file", args: []string{"scenario", "run", "--json", "/no/such/file.json"}, wantErr: "no such file"},

		// Every verb that runs scenarios takes one kind and names the verb
		// of any other kind.
		{name: "scenario run 1-D", args: []string{"scenario", "run", "--name", "archetypes-capacity"}},
		{name: "scenario run grid", args: []string{"scenario", "run", "--name", "po-sizing-gamma-nu"}, wantErr: "declares a 2-D grid sweep; run it with 'pubopt grid run'"},
		{name: "scenario run dynamics", args: []string{"scenario", "run", "--name", "dyn-convergence"}, wantErr: "is a dynamics simulation; run it with 'pubopt simulate run'"},
		{name: "grid run 1-D", args: []string{"grid", "run", "--name", "archetypes-capacity"}, wantErr: "declares a 1-D sweep; run it with 'pubopt scenario run'"},
		{name: "grid run grid", args: []string{"grid", "run", "--name", "fig4", "-cps", "20"}},
		{name: "grid run dynamics", args: []string{"grid", "run", "--name", "dyn-convergence"}, wantErr: "is a dynamics simulation; run it with 'pubopt simulate run'"},
		{name: "simulate run 1-D", args: []string{"simulate", "run", "--name", "archetypes-capacity"}, wantErr: "declares a 1-D sweep; run it with 'pubopt scenario run'"},
		{name: "simulate run grid", args: []string{"simulate", "run", "--name", "po-sizing-gamma-nu"}, wantErr: "declares a 2-D grid sweep; run it with 'pubopt grid run'"},
		{name: "simulate run dynamics", args: []string{"simulate", "run", "--name", "dyn-convergence", "-cps", "20"}},
		{name: "query 1-D", args: []string{"query", "--name", "archetypes-capacity", "-x", "1", "-y", "1"}, wantErr: "declares a 1-D sweep; run it with 'pubopt scenario run'"},

		{name: "verify bad seed", args: []string{"verify", "12abc"}, wantErr: `bad seed "12abc"`},
		{name: "verify negative seed", args: []string{"verify", "-5"}, wantErr: `bad seed "-5"`},
		{name: "verify hex seed", args: []string{"verify", "0x10"}, wantErr: `bad seed "0x10"`},

		{name: "validate without scenarios", args: []string{"validate"}, wantErr: "scenario names or -all"},
		{name: "validate names and -all", args: []string{"validate", "neutral-baseline", "-all"}, wantErr: "scenario names or -all"},
		{name: "validate unknown scenario", args: []string{"validate", "no-such"}, wantErr: `unknown scenario "no-such"`},
		{name: "validate bad format", args: []string{"validate", "neutral-baseline", "-format", "bogus"}, wantErr: `unknown format "bogus"`},
		{name: "validate bad flag", args: []string{"validate", "neutral-baseline", "-bogus"}, usage: true},
		{name: "validate help flag", args: []string{"validate", "-h"}, wantHelp: true},

		{name: "serve bad flag", args: []string{"serve", "-bogus"}, usage: true},
		{name: "serve trailing argument", args: []string{"serve", "extra"}, usage: true},
		{name: "serve negative workers", args: []string{"serve", "-workers", "-1"}, usage: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			quiet(t)
			err := run(tc.args)
			switch {
			case tc.usage:
				if !errors.Is(err, errUsage) {
					t.Fatalf("run(%q) = %v, want the errUsage sentinel", tc.args, err)
				}
			case tc.wantHelp:
				if !errors.Is(err, flag.ErrHelp) {
					t.Fatalf("run(%q) = %v, want flag.ErrHelp", tc.args, err)
				}
			case tc.wantErr == "":
				if err != nil {
					t.Fatalf("run(%q) = %v, want nil", tc.args, err)
				}
			default:
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("run(%q) = %v, want error containing %q", tc.args, err, tc.wantErr)
				}
				if errors.Is(err, errUsage) {
					t.Fatalf("run(%q) returned errUsage; subcommand errors must stay distinct", tc.args)
				}
			}
		})
	}
}

// tinyScenarioJSON is a 2-CP explicit scenario solving in microseconds, for
// end-to-end CLI tests.
const tinyScenarioJSON = `{
  "name": "cli-test-tiny",
  "title": "CLI test scenario",
  "population": {
    "kind": "explicit",
    "cps": [
      {"name": "a", "alpha": 0.5, "theta_hat": 100, "v": 1, "phi": 2, "demand": {"family": "exponential", "beta": 2}},
      {"name": "b", "alpha": 0.8, "theta_hat": 200, "v": 0.5, "phi": 1, "demand": {"family": "constant"}}
    ]
  },
  "providers": [{"name": "neutral", "gamma": 1}],
  "sweep": {"axis": "nu", "values": [50, 100, 150], "metrics": ["phi", "utilization"]}
}`

func TestScenarioRunWritesCSVOut(t *testing.T) {
	quiet(t)
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "tiny.json")
	if err := os.WriteFile(jsonPath, []byte(tinyScenarioJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	outDir := filepath.Join(dir, "out")

	err := run([]string{"scenario", "run", "--json", jsonPath, "-format", "csv", "-out", outDir})
	if err != nil {
		t.Fatalf("run: %v", err)
	}

	// One CSV per metric table, named <scenario>_<metric>.csv.
	for _, metric := range []string{"phi", "utilization"} {
		path := filepath.Join(outDir, "cli-test-tiny_"+metric+".csv")
		f, err := os.Open(path)
		if err != nil {
			t.Fatalf("expected CSV output: %v", err)
		}
		rows, err := csv.NewReader(f).ReadAll()
		f.Close()
		if err != nil {
			t.Fatalf("parsing %s: %v", path, err)
		}
		if len(rows) < 2 {
			t.Fatalf("%s has %d rows, want a header plus data", path, len(rows))
		}
		header := strings.Join(rows[0], ",")
		if header != "series,nu,"+metric {
			t.Fatalf("%s header = %q", path, header)
		}
		// 3 sweep points per series.
		if got := len(rows) - 1; got%3 != 0 || got == 0 {
			t.Fatalf("%s has %d data rows, want a multiple of the 3 sweep points", path, got)
		}
	}
}

// TestGridRunFigureWritesCSVOut runs a paper figure built-in on a small
// ensemble and checks its long-form CSV lands under -out.
func TestGridRunFigureWritesCSVOut(t *testing.T) {
	quiet(t)
	outDir := filepath.Join(t.TempDir(), "out")
	err := run([]string{"grid", "run", "--name", "fig4", "-cps", "40", "-format", "csv", "-out", outDir})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	b, err := os.ReadFile(filepath.Join(outDir, "fig4_grid.csv"))
	if err != nil {
		t.Fatal(err)
	}
	rows := strings.Split(strings.TrimSpace(string(b)), "\n")
	if rows[0] != "layer,price,nu,value" {
		t.Fatalf("CSV header = %q", rows[0])
	}
	// 101 prices × 5 capacities, for each of the Ψ and Φ layers.
	if got := len(rows) - 1; got != 2*101*5 {
		t.Fatalf("CSV has %d data rows, want %d", got, 2*101*5)
	}
}

// TestValidateWritesReport drives the Tier-2 harness end-to-end from the
// CLI on a tiny sample and checks the verdict CSV lands on disk. The
// command returns an error whenever a verdict fails, so a nil error here
// also asserts fluid/packet agreement.
func TestValidateWritesReport(t *testing.T) {
	quiet(t)
	out := filepath.Join(t.TempDir(), "verdicts.csv")
	err := run([]string{"validate", "archetypes-capacity", "-sample", "1", "-flows", "96", "-out", out})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatalf("expected verdict CSV: %v", err)
	}
	rows, err := csv.NewReader(f).ReadAll()
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 2 {
		t.Fatalf("verdict CSV has %d rows, want a header plus data", len(rows))
	}
	if got := strings.Join(rows[0], ","); got != "scenario,cell,link,cp,metric,fluid,packet,error,tolerance,pass" {
		t.Fatalf("verdict CSV header = %q", got)
	}
	for _, row := range rows[1:] {
		if row[len(row)-1] != "true" {
			t.Fatalf("failing verdict in report: %v", row)
		}
	}
}

func TestScenarioRunSeedOverrideChangesOutput(t *testing.T) {
	quiet(t)
	dir := t.TempDir()
	outA := filepath.Join(dir, "a")
	outB := filepath.Join(dir, "b")
	outC := filepath.Join(dir, "c")
	base := []string{"scenario", "run", "--name", "neutral-baseline", "-cps", "40", "-format", "csv"}
	for _, tc := range []struct {
		out  string
		seed string
	}{{outA, "1"}, {outB, "1"}, {outC, "2"}} {
		args := append(append([]string{}, base...), "-seed", tc.seed, "-out", tc.out)
		if err := run(args); err != nil {
			t.Fatalf("run(%q): %v", args, err)
		}
	}
	read := func(dir string) string {
		t.Helper()
		b, err := os.ReadFile(filepath.Join(dir, "neutral-baseline_phi.csv"))
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if read(outA) != read(outB) {
		t.Fatal("same seed produced different output (determinism broken)")
	}
	if read(outA) == read(outC) {
		t.Fatal("-seed override had no effect on the output")
	}
}
