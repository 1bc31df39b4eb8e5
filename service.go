package publicoption

import (
	"github.com/netecon-sim/publicoption/internal/cache"
	"github.com/netecon-sim/publicoption/internal/service"
)

// Service is the long-running HTTP query layer over the model: the scenario
// registry behind a stdlib-only JSON API with a content-addressed
// equilibrium cache (singleflight-deduplicated, LRU bounded, solve-pool
// limited). It implements http.Handler; mount it on any
// server or run it via `pubopt serve`. See docs/SERVICE.md.
type Service = service.Server

// ServiceOptions configures NewService: solve-pool size, cache bound,
// structured logging, trace-ID echoing, and the flight recorder's capacity
// (see docs/OBSERVABILITY.md).
type ServiceOptions = service.Options

// Service response shapes, exported for typed clients.
type (
	// ServiceRunResponse is what the run endpoints return.
	ServiceRunResponse = service.RunResponse
	// ServiceRunResult is the cacheable part of a run response.
	ServiceRunResult = service.RunResult
	// ServiceTable is one result table in wire form: a ResultTable.
	ServiceTable = ResultTable
	// ServiceSeries is one curve of a wire-form table: a ResultSeries.
	ServiceSeries = ResultSeries
	// ServiceScenarioInfo is one row of GET /v1/scenarios.
	ServiceScenarioInfo = service.ScenarioInfo
	// ServiceCacheStats snapshots the equilibrium cache's counters.
	ServiceCacheStats = cache.Stats
)

// DefaultServiceCacheEntries is the cache's default LRU bound.
const DefaultServiceCacheEntries = service.DefaultCacheEntries

// NewService builds the HTTP service with its equilibrium cache and worker
// pool.
func NewService(opts ServiceOptions) *Service { return service.New(opts) }
