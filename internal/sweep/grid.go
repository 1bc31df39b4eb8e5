package sweep

import (
	"context"
	"fmt"
	"io"
	"strconv"
	"sync"
	"sync/atomic"
)

// Grid is a reproduced 2-D parameter study: a rectangle of cells over a
// column axis (Xs, e.g. the Public Option share γ) and a row axis (Ys,
// e.g. per-capita capacity ν), carrying one scalar field per recorded
// quantity (Layers). It is the 2-D counterpart of Table, produced by
// scenario grid sweeps and rendered by plot.Heatmap or WriteCSV.
type Grid struct {
	// Title is the human description, typically the scenario title.
	Title string
	// XLabel and YLabel name the column and row axes (the sweep axis
	// constants: "nu", "poshare", "sigma", ...).
	XLabel, YLabel string
	// Xs are the column-axis values (one per column), Ys the row-axis
	// values (one per row). Both hold resolved model units — absolute ν,
	// not fractions of saturation.
	Xs, Ys []float64
	// Layers are the recorded scalar fields, e.g. "phi" (per-capita
	// consumer surplus Φ) or "share/incumbent" (one layer per provider for
	// per-provider metrics).
	Layers []GridLayer
}

// GridLayer is one scalar field over the grid's cells.
type GridLayer struct {
	// Name identifies the quantity: a market-level metric name ("phi") or
	// metric/provider for per-provider metrics ("psi/incumbent").
	Name string
	// Z holds the cell values in row-major order: Z[row][col] is the value
	// at (Ys[row], Xs[col]).
	Z [][]float64
}

// NewGrid allocates a grid with the given axes and zero-filled layers.
func NewGrid(title, xLabel, yLabel string, xs, ys []float64, layers []string) *Grid {
	g := &Grid{
		Title:  title,
		XLabel: xLabel,
		YLabel: yLabel,
		Xs:     append([]float64(nil), xs...),
		Ys:     append([]float64(nil), ys...),
	}
	for _, name := range layers {
		z := make([][]float64, len(ys))
		for r := range z {
			z[r] = make([]float64, len(xs))
		}
		g.Layers = append(g.Layers, GridLayer{Name: name, Z: z})
	}
	return g
}

// Cells returns the number of cells (rows × columns).
func (g *Grid) Cells() int { return len(g.Xs) * len(g.Ys) }

// Layer returns the named layer, or nil.
func (g *Grid) Layer(name string) *GridLayer {
	for i := range g.Layers {
		if g.Layers[i].Name == name {
			return &g.Layers[i]
		}
	}
	return nil
}

// Row extracts one row of a layer as a Table series over the column axis —
// the bridge back to 1-D tooling (a grid row at fixed ν is exactly a 1-D
// sweep at that ν).
func (g *Grid) Row(layer string, row int) (Series, error) {
	l := g.Layer(layer)
	if l == nil {
		return Series{}, fmt.Errorf("sweep: grid has no layer %q", layer)
	}
	if row < 0 || row >= len(g.Ys) {
		return Series{}, fmt.Errorf("sweep: grid row %d outside [0,%d)", row, len(g.Ys))
	}
	s := Series{Name: fmt.Sprintf("%s@%s=%g", layer, g.YLabel, g.Ys[row])}
	for c, x := range g.Xs {
		s.Append(x, l.Z[row][c])
	}
	return s, nil
}

// WriteCSV emits the grid in long form: layer,<xlabel>,<ylabel>,value —
// one row per (layer, cell), trivially pivotable into a heatmap by any
// plotting tool.
func (g *Grid) WriteCSV(w io.Writer) error {
	return writeLongCSV(w, "grid CSV", []string{"layer", g.XLabel, g.YLabel, "value"}, func(write func(row []string) error) error {
		for _, l := range g.Layers {
			if len(l.Z) != len(g.Ys) {
				return fmt.Errorf("sweep: grid layer %q has %d rows, want %d", l.Name, len(l.Z), len(g.Ys))
			}
			for r, rowVals := range l.Z {
				if len(rowVals) != len(g.Xs) {
					return fmt.Errorf("sweep: grid layer %q row %d has %d columns, want %d", l.Name, r, len(rowVals), len(g.Xs))
				}
				for c, v := range rowVals {
					row := []string{
						l.Name,
						strconv.FormatFloat(g.Xs[c], 'g', 10, 64),
						strconv.FormatFloat(g.Ys[r], 'g', 10, 64),
						strconv.FormatFloat(v, 'g', 10, 64),
					}
					if err := write(row); err != nil {
						return err
					}
				}
			}
		}
		return nil
	})
}

// RunRows executes rows 0..rows-1 across up to workers goroutines with work
// stealing: every worker repeatedly claims the next unclaimed row from a
// shared counter, so a worker that lands on cheap rows takes more of them
// and no worker idles while rows remain. A "row" is any independent unit:
// a grid cell, a refinement point, a regime curve, a population batch.
// workers <= 0 (or above rows) means one goroutine per row; callers with a
// "0 = GOMAXPROCS" option resolve it first.
//
// run(worker, row) is called with the claiming worker's index in
// [0,workers). Which rows a worker claims depends on timing, so state kept
// per worker across rows makes results depend on scheduling unless run
// resets it first (the cell executor's pooled workers do). Workers run
// sequentially within themselves; panics propagate to the caller after all
// workers drain.
//
//pubopt:hotpath
func RunRows(workers, rows int, run func(worker, row int)) {
	RunRowsContext(nil, workers, rows, run)
}

// RunRowsContext is RunRows with cooperative cancellation: once ctx is done
// no worker claims another row (a row already claimed runs to completion
// unless run itself watches ctx). A nil ctx never cancels and behaves
// exactly like RunRows.
//
//pubopt:hotpath
func RunRowsContext(ctx context.Context, workers, rows int, run func(worker, row int)) {
	if rows <= 0 {
		return
	}
	if workers <= 0 || workers > rows {
		workers = rows
	}
	if workers == 1 {
		for row := 0; row < rows; row++ {
			if ctx != nil && ctx.Err() != nil {
				return
			}
			run(0, row)
		}
		return
	}
	var (
		next  atomic.Int64
		wg    sync.WaitGroup
		mu    sync.Mutex
		first any
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		//pubopt:allow(hotpathalloc): one worker closure per sweep, amortized over every row it claims
		go func(worker int) {
			defer wg.Done()
			//pubopt:allow(hotpathalloc): panic-capture closure, one per worker per sweep
			defer func() {
				if r := recover(); r != nil {
					mu.Lock()
					if first == nil {
						first = r
					}
					mu.Unlock()
					// Starve the other workers so one poisoned row does not
					// leave the runner spinning through the rest.
					next.Store(int64(rows))
				}
			}()
			for {
				if ctx != nil && ctx.Err() != nil {
					return
				}
				row := int(next.Add(1)) - 1
				if row >= rows {
					return
				}
				run(worker, row)
			}
		}(w)
	}
	wg.Wait()
	if first != nil {
		panic(first)
	}
}
