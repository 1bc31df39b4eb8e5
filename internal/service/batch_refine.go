package service

import (
	"net/http"

	"github.com/netecon-sim/publicoption/internal/cache"
	"github.com/netecon-sim/publicoption/internal/obs"
	"github.com/netecon-sim/publicoption/internal/refine"
)

// POST /v1/batch with "refine": true — the adaptive-refinement stream. The
// grid's declared axes seed a refinement run (internal/refine): the stream
// opens with the seed geometry, then carries every materialized lattice
// point and every finalized leaf cell as they are merged (deterministic
// order, any worker count), and closes with the refinement telemetry and
// the surrogate's verified error bound. The finished surrogate is cached
// under the scenario's content address, so a subsequent GET /v1/query on
// the same grid answers without solving; lattice points ride the same
// cell cache as dense batch cells.

// pointFrame is one materialized lattice point of a refined stream.
type pointFrame struct {
	Point refinePoint `json:"point"`
	// Cache is "hit" for points served by the cache, "miss" for points the
	// run solved.
	Cache string `json:"cache"`
	Trace string `json:"trace,omitempty"`
}

type refinePoint struct {
	X      float64            `json:"x"`
	Y      float64            `json:"y"`
	Values map[string]float64 `json:"values"`
}

// leafFrame is one finalized leaf cell: the surrogate's bilinear patch over
// [X0,X1]×[Y0,Y1], refined Depth levels below the seed grid.
type leafFrame struct {
	Leaf refineLeaf `json:"leaf"`
}

type refineLeaf struct {
	X0    float64 `json:"x0"`
	Y0    float64 `json:"y0"`
	X1    float64 `json:"x1"`
	Y1    float64 `json:"y1"`
	Depth int     `json:"depth"`
}

// refineDoneFrame closes a refined stream. Refine carries the run's full
// telemetry (points solved vs reused, splits, leaf-depth histogram);
// Verified/MaxError/Tolerance state the surrogate's error contract.
type refineDoneFrame struct {
	Done bool `json:"done"`
	// FineXs × FineYs is the virtual fine-lattice resolution the refined
	// surface resolves — the dense grid it replaces.
	FineXs    int             `json:"fine_xs"`
	FineYs    int             `json:"fine_ys"`
	Verified  bool            `json:"verified"`
	MaxError  float64         `json:"max_error"`
	Tolerance float64         `json:"tolerance"`
	Refine    obs.RefineStats `json:"refine"`
	ElapsedMS float64         `json:"elapsed_ms"`
}

// batchGridRefined streams an adaptive-refinement run of a grid scenario.
// Unlike the dense path, frames are emitted straight from the engine's
// sequential merge on this goroutine — the engine's own worker pool solves
// points in parallel underneath.
func (s *Server) batchGridRefined(w http.ResponseWriter, r *http.Request, res *resolved, workers int) {
	job := res.job
	s.serveStream(w, r, "grid", res.sc.Name, gridHeader(res.sc, job, true), func(st *stream) (any, error) {
		if err := st.reserve(); err != nil {
			return nil, err
		}
		var sink obs.Counters
		surr, err := s.refineGrid(st.ctx, res, &sink, refine.Options{
			Workers: workers,
			OnPoint: func(p refine.Point) error {
				outcome := cache.Miss.String()
				if p.Reused {
					outcome = cache.Hit.String()
				}
				return st.nw.frame(&pointFrame{
					Point: refinePoint{X: p.X, Y: p.Y, Values: job.ValuesMap(p.Values)},
					Cache: outcome, Trace: st.echo,
				})
			},
			OnLeaf: func(l refine.Leaf) error {
				return st.nw.frame(&leafFrame{Leaf: refineLeaf{
					X0: l.X0, Y0: l.Y0, X1: l.X1, Y1: l.Y1, Depth: l.Depth,
				}})
			},
		})
		st.delta = sink.Snapshot()
		if err != nil {
			return nil, err
		}
		stats := surr.Stats()
		// Cache the surrogate so GET /v1/query answers this grid solve-free
		// from now on.
		s.store.Put(res.key, surr)
		st.key = res.key
		st.solved, st.hits = int(stats.PointsSolved+stats.ProbeSolves), int(stats.PointsReused)
		fineXs, fineYs := surr.FineDims()
		return &refineDoneFrame{
			Done: true, FineXs: fineXs, FineYs: fineYs,
			Verified: surr.Verified(), MaxError: surr.MaxError(), Tolerance: surr.Tolerance(),
			Refine:    stats,
			ElapsedMS: st.elapsedMS(),
		}, nil
	})
}
