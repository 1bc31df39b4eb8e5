package publicoption

import (
	"fmt"
	"io"
	"strings"

	"github.com/netecon-sim/publicoption/internal/plot"
	"github.com/netecon-sim/publicoption/internal/scenario"
	"github.com/netecon-sim/publicoption/internal/sweep"
)

// Scenario is a declarative market experiment: providers, CP population,
// regulation regime and sweep axis as plain data, round-trippable to JSON.
// Build one literally, load it with LoadScenario, or copy a built-in from
// ScenarioByName and modify it; Scenario.Run solves it into ResultTables.
type Scenario = scenario.Scenario

// Scenario component specs, exported so scenarios can be built in code.
type (
	// ScenarioPopulation declares the CP side of a scenario.
	ScenarioPopulation = scenario.PopulationSpec
	// ScenarioProvider declares one ISP of a scenario.
	ScenarioProvider = scenario.ProviderSpec
	// ScenarioRegulation switches a scenario to a regime comparison.
	ScenarioRegulation = scenario.RegulationSpec
	// ScenarioSweep declares a scenario's x-axis, grid and metrics.
	ScenarioSweep = scenario.SweepSpec
	// ScenarioRunOptions controls execution parallelism.
	ScenarioRunOptions = scenario.RunOptions
)

// Scenarios returns deep copies of every built-in named scenario, sorted by
// name. The registry covers the paper's market figures (fig4 to fig12 as
// grids), its regime comparison, and market structures from the related
// literature (asymmetric duopoly, revenue rebates, batched large-N
// oligopoly).
func Scenarios() []*Scenario { return scenario.All() }

// ScenarioNames lists the built-in scenario names, sorted.
func ScenarioNames() []string { return scenario.Names() }

// ScenarioByName returns a deep copy of the named built-in scenario.
func ScenarioByName(name string) (*Scenario, bool) { return scenario.Get(name) }

// ResultTable is a solved 1-D sweep: named series over a common axis.
type ResultTable = sweep.Table

// ResultSeries is one curve of a ResultTable.
type ResultSeries = sweep.Series

// RenderChart draws a table as an ASCII line chart (stdlib-only plotting).
func RenderChart(t *ResultTable, width, height int) string { return plot.Chart(t, width, height) }

// RenderText renders a table as aligned columns, subsampled to maxRows
// (0 = all rows).
func RenderText(t *ResultTable, maxRows int) string { return plot.Text(t, maxRows) }

// LoadScenario parses a scenario from JSON and validates it.
func LoadScenario(r io.Reader) (*Scenario, error) { return scenario.Load(r) }

// RunScenarioReport runs the scenario and renders a self-contained text
// report — title, description, and every result table as aligned columns
// (maxRows caps each table's rows by subsampling; 0 keeps all). It is the
// shared rendering path of the runnable examples; use Scenario.Run for
// programmatic access to the tables.
func RunScenarioReport(s *Scenario, opt ScenarioRunOptions, maxRows int) (string, error) {
	tables, err := s.Run(opt)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s\n%s\n\n", s.Title, s.Description)
	for _, t := range tables {
		b.WriteString(plot.Text(t, maxRows))
		b.WriteString("\n")
	}
	return b.String(), nil
}
