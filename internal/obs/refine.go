package obs

import "sync/atomic"

// MaxRefineDepth is the hard cap on adaptive-grid refinement depth. A depth-d
// leaf covers 1/4^d of a seed cell, so 8 levels already resolve a seed cell
// 256× finer per axis — beyond that the fixed-size depth histogram (and the
// solver's own tolerances) stop being meaningful. internal/refine clamps
// configured depths to this value.
const MaxRefineDepth = 8

// RefineStats is the refinement engine's telemetry block: how much work an
// adaptive grid run did and where it stopped. Like SolveStats it is the hot
// tier — plain counters owned by one engine run, incremented with ordinary
// adds, aggregated cross-goroutine only via RefineCounters.
type RefineStats struct {
	// PointsSolved counts lattice points (and probe points) materialized by a
	// kernel solve during this run.
	PointsSolved uint64 `json:"points_solved,omitempty"`
	// PointsReused counts lattice/probe points served by the caller's Lookup
	// hook (the content-addressed equilibrium cache, one cell per hit)
	// instead of a solve.
	PointsReused uint64 `json:"points_reused,omitempty"`
	// CellsSplit counts cells whose curvature or indicator test forced a
	// split into four children.
	CellsSplit uint64 `json:"cells_split,omitempty"`
	// CellsInterpolated is always 0: refinement accepts every leaf by its
	// center test. The field stays until the benchmark drops its
	// refine.screen_frac metric, which reads it.
	CellsInterpolated uint64 `json:"cells_interpolated,omitempty"`
	// CellsVerified counts leaf cells accepted by the center test: a solved
	// center point agreed with the bilinear prediction within tolerance.
	// Every other leaf is a cell the run's depth cap finalized untested,
	// so CellsVerified plus the leaves at that depth is Leaves().
	CellsVerified uint64 `json:"cells_verified,omitempty"`
	// ProbeSolves counts the off-knot verification probes that actually
	// solved (probes served by Lookup count into PointsReused).
	ProbeSolves uint64 `json:"probe_solves,omitempty"`
	// LeafDepths is the refinement-depth histogram: LeafDepths[d] leaves were
	// finalized at depth d (0 = an unsplit seed cell).
	LeafDepths [MaxRefineDepth + 1]uint64 `json:"leaf_depths"`
}

// Leaves returns the total number of leaf cells across all depths.
func (s RefineStats) Leaves() uint64 {
	var n uint64
	for _, d := range s.LeafDepths {
		n += d
	}
	return n
}

// RefineCounters is the cross-goroutine aggregation sink for RefineStats —
// the refinement counterpart of Counters, fed once per run by the HTTP
// service and rendered as pubopt_refine_* Prometheus counters. The zero
// value is ready to use; a nil *RefineCounters is a valid no-op sink.
type RefineCounters struct {
	pointsSolved  atomic.Uint64
	pointsReused  atomic.Uint64
	cellsSplit    atomic.Uint64
	cellsVerified atomic.Uint64
	probeSolves   atomic.Uint64
	leafDepths    [MaxRefineDepth + 1]atomic.Uint64
}

// Add publishes a stats delta into the sink. Safe for concurrent use; a
// no-op on a nil receiver so call sites never need to branch.
func (c *RefineCounters) Add(d RefineStats) {
	if c == nil {
		return
	}
	if d.PointsSolved > 0 {
		c.pointsSolved.Add(d.PointsSolved)
	}
	if d.PointsReused > 0 {
		c.pointsReused.Add(d.PointsReused)
	}
	if d.CellsSplit > 0 {
		c.cellsSplit.Add(d.CellsSplit)
	}
	if d.CellsVerified > 0 {
		c.cellsVerified.Add(d.CellsVerified)
	}
	if d.ProbeSolves > 0 {
		c.probeSolves.Add(d.ProbeSolves)
	}
	for i := range d.LeafDepths {
		if d.LeafDepths[i] > 0 {
			c.leafDepths[i].Add(d.LeafDepths[i])
		}
	}
}

// Snapshot returns a point-in-time copy of the aggregated counters.
func (c *RefineCounters) Snapshot() RefineStats {
	if c == nil {
		return RefineStats{}
	}
	s := RefineStats{
		PointsSolved:  c.pointsSolved.Load(),
		PointsReused:  c.pointsReused.Load(),
		CellsSplit:    c.cellsSplit.Load(),
		CellsVerified: c.cellsVerified.Load(),
		ProbeSolves:   c.probeSolves.Load(),
	}
	for i := range s.LeafDepths {
		s.LeafDepths[i] = c.leafDepths[i].Load()
	}
	return s
}
