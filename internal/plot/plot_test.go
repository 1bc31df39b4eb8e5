package plot

import (
	"strings"
	"testing"

	"github.com/netecon-sim/publicoption/internal/numeric"
	"github.com/netecon-sim/publicoption/internal/sweep"
)

func demoTable() *sweep.Table {
	t := &sweep.Table{Title: "demo", XLabel: "x", YLabel: "y"}
	up, down := sweep.Series{Name: "up"}, sweep.Series{Name: "down"}
	for _, x := range numeric.Linspace(0, 10, 21) {
		up.Append(x, x)
		down.Append(x, 10-x)
	}
	t.Add(up)
	t.Add(down)
	return t
}

func TestChartContainsStructure(t *testing.T) {
	out := Chart(demoTable(), 60, 15)
	for _, want := range []string{"demo", "*", "o", "up", "down", "+", "|"} {
		if !strings.Contains(out, want) {
			t.Errorf("chart missing %q:\n%s", want, out)
		}
	}
	// Axis range labels.
	if !strings.Contains(out, "10") || !strings.Contains(out, "0") {
		t.Errorf("chart missing range labels:\n%s", out)
	}
}

func TestChartEmptyTable(t *testing.T) {
	out := Chart(&sweep.Table{Title: "empty"}, 40, 10)
	if !strings.Contains(out, "(no data)") {
		t.Errorf("empty chart output: %s", out)
	}
}

func TestChartConstantSeries(t *testing.T) {
	tbl := &sweep.Table{XLabel: "x", YLabel: "y"}
	tbl.Add(sweep.Series{Name: "flat", X: []float64{0, 1}, Y: []float64{5, 5}})
	out := Chart(tbl, 40, 8)
	if !strings.Contains(out, "*") {
		t.Errorf("constant series not drawn:\n%s", out)
	}
}

func TestChartHandlesNaN(t *testing.T) {
	tbl := &sweep.Table{XLabel: "x", YLabel: "y"}
	nan := []float64{0, 1, 2}
	ys := []float64{1, nanValue(), 3}
	tbl.Add(sweep.Series{Name: "gappy", X: nan, Y: ys})
	out := Chart(tbl, 40, 8)
	if strings.Contains(out, "NaN") {
		t.Errorf("NaN leaked into chart:\n%s", out)
	}
}

func nanValue() float64 {
	var z float64
	return z / z
}

func TestTextAlignsColumns(t *testing.T) {
	out := Text(demoTable(), 0)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// Title + header + 21 rows.
	if len(lines) != 23 {
		t.Fatalf("got %d lines, want 23:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[1], "up") || !strings.Contains(lines[1], "down") {
		t.Errorf("header missing series names: %q", lines[1])
	}
}

func TestTextSubsamples(t *testing.T) {
	out := Text(demoTable(), 5)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) > 10 {
		t.Fatalf("subsampled output too long: %d lines", len(lines))
	}
}

func TestTextEmpty(t *testing.T) {
	if out := Text(&sweep.Table{}, 0); !strings.Contains(out, "(no data)") {
		t.Errorf("empty table output: %s", out)
	}
}
