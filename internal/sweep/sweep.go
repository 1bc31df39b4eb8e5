// Package sweep provides the parameter-sweep machinery behind the figure
// reproductions: named series, figure tables, 2-D grids, long-form CSV
// export, and one work-stealing parallel runner, RunRows.
//
// Concurrency note: the game solvers in internal/core keep warm-start state
// (partition warm starts plus their alloc.Workspace equilibrium kernels)
// and are not safe for concurrent use. RunRows distributes independent
// units — grid rows, sweep chunks, regime curves, population batches —
// across goroutines; whether a unit owns a fresh solver is the caller's
// choice (internal/scenario's executor gives every unit a fresh one, so
// answers do not depend on scheduling).
package sweep

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// Series is one named curve of a figure: parallel X/Y slices in model
// units (X is typically a sweep axis such as per-capita capacity ν or the
// premium price c; Y a surplus Φ/Ψ, a market share, or a utilization).
type Series struct {
	Name string    `json:"name"`
	X    []float64 `json:"x"`
	Y    []float64 `json:"y"`
}

// Append adds a point.
func (s *Series) Append(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Len returns the number of points.
func (s *Series) Len() int { return len(s.X) }

// Table is a reproduced figure: a set of series over a common x-axis
// quantity. XLabel names the swept axis ("nu", "price", ...), YLabel the
// recorded metric ("phi", "share", ...); both flow into CSV headers and
// chart legends unchanged. The JSON tags are the wire form of the
// service's run results.
type Table struct {
	Title  string   `json:"title"`
	XLabel string   `json:"x_label"`
	YLabel string   `json:"y_label"`
	Series []Series `json:"series"`
}

// Add appends a series to the table.
func (t *Table) Add(s Series) { t.Series = append(t.Series, s) }

// WriteCSV emits the table in long form: series,x,y — one row per point,
// trivially loadable by any plotting tool.
func (t *Table) WriteCSV(w io.Writer) error {
	return writeLongCSV(w, "CSV", []string{"series", t.XLabel, t.YLabel}, func(write func(row []string) error) error {
		for _, s := range t.Series {
			if len(s.X) != len(s.Y) {
				return fmt.Errorf("sweep: series %q has mismatched lengths %d/%d", s.Name, len(s.X), len(s.Y))
			}
			for i := range s.X {
				row := []string{
					s.Name,
					strconv.FormatFloat(s.X[i], 'g', 10, 64),
					strconv.FormatFloat(s.Y[i], 'g', 10, 64),
				}
				if err := write(row); err != nil {
					return err
				}
			}
		}
		return nil
	})
}

// writeLongCSV centralizes the header/rows/flush choreography shared by the
// long-form CSV writers (Table.WriteCSV, Grid.WriteCSV). what qualifies the
// error messages ("CSV" for tables, "grid CSV" for grids); emit streams the
// data rows through write and may return its own shape errors verbatim.
func writeLongCSV(w io.Writer, what string, header []string, emit func(write func(row []string) error) error) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("sweep: writing %s header: %w", what, err)
	}
	write := func(row []string) error {
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("sweep: writing %s row: %w", what, err)
		}
		return nil
	}
	if err := emit(write); err != nil {
		return err
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		// Flush is the only point buffered bytes actually reach w, so a
		// short write (full disk, closed pipe) surfaces here, not above.
		return fmt.Errorf("sweep: flushing %s: %w", what, err)
	}
	return nil
}
