package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	publicoption "github.com/netecon-sim/publicoption"
)

// TestQueryUnverifiedAnswersLikeTheServer runs `pubopt query` where the
// rebate grid's surrogate misses its tolerance: like GET /v1/query, the
// command must print a solve of the point, not the interpolation.
func TestQueryUnverifiedAnswersLikeTheServer(t *testing.T) {
	out := filepath.Join(t.TempDir(), "stdout")
	f, err := os.Create(out)
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = f
	err = run([]string{"query", "--name", "po-rebate-sigma-nu", "-cps", "60", "-seed", "7", "-x", "0.37", "-y", "5.1"})
	os.Stdout = old
	f.Close()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	got := string(b)

	sc, _ := publicoption.ScenarioByName("po-rebate-sigma-nu")
	if err := sc.ApplyEnsembleOverrides(7, 60); err != nil {
		t.Fatal(err)
	}
	job, err := sc.CompileGrid()
	if err != nil {
		t.Fatal(err)
	}
	vals := job.NewWorker().SolveAt(0.37, 5.1)
	layers := make([]string, 0, len(vals))
	for name := range vals {
		layers = append(layers, name)
	}
	sort.Strings(layers)
	for _, name := range layers {
		if line := fmt.Sprintf("   %-24s %.6g\n", name, vals[name]); !strings.Contains(got, line) {
			t.Errorf("output lacks the solved %s line %q:\n%s", name, line, got)
		}
	}
	if !strings.Contains(got, "   source: solve\n") {
		t.Errorf("output does not report source: solve:\n%s", got)
	}
}
