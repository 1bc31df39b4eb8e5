package service

import (
	"encoding/json"
	"net/http"

	"github.com/netecon-sim/publicoption/internal/cache"
	"github.com/netecon-sim/publicoption/internal/dynamics"
	"github.com/netecon-sim/publicoption/internal/scenario"
)

// POST /v1/simulate — the streaming dynamics runner. One request simulates
// one dynamics scenario (named or inline) tick by tick, and the response is
// NDJSON: a header frame with the run's geometry, one frame per tick (a
// solved tick's written and flushed as the tick completes), and a summary
// frame.
//
// Ticks are cached individually under their content address — a digest of
// the scenario's canonical JSON plus the tick index (tickKeys), computed
// once per resolved scenario — and a trajectory is a pure function of the
// scenario, so a replay streams the cached prefix without solving anything,
// buffered and flushed together. At the first missing tick the engine is
// restored from the last cached record and the remainder of the trajectory
// is solved live (a restored warm start can differ from an uninterrupted
// one by ~1e-9 per solve; see dynamics.Engine.Restore). The summary frame's
// Solved count is 0 on a fully warm replay — the number CI asserts on.
//
// See docs/DYNAMICS.md for the full frame-by-frame contract.

// simulateRequest is the body of POST /v1/simulate. Exactly one of
// Scenario (a registered name) or ScenarioJSON (an inline definition)
// must be set.
type simulateRequest struct {
	Scenario     string          `json:"scenario,omitempty"`
	ScenarioJSON json.RawMessage `json:"scenario_json,omitempty"`
}

// simHeaderFrame opens the stream with the resolved run geometry, so
// clients can allocate before any tick arrives.
type simHeaderFrame struct {
	Sim simInfo `json:"sim"`
}

type simInfo struct {
	Name      string   `json:"name"`
	Title     string   `json:"title"`
	Providers []string `json:"providers"`
	Metrics   []string `json:"metrics,omitempty"`
	Ticks     int      `json:"ticks"`
}

// simTickFrame is one solved or cache-served tick. Trace carries the
// request's trace ID when the server runs with Options.Trace.
type simTickFrame struct {
	Tick  dynamics.TickRecord `json:"tick"`
	Cache string              `json:"cache"` // "hit" or "miss"
	Trace string              `json:"trace,omitempty"`
}

// simDoneFrame closes the stream. Solved is 0 on a fully warm replay.
type simDoneFrame struct {
	Done      bool    `json:"done"`
	Ticks     int     `json:"ticks"`
	Solved    int     `json:"solved"`
	CacheHits int     `json:"cache_hits"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var req simulateRequest
	if err := decodeJSONBody(w, r, &req); err != nil {
		writeError(w, bodyErrorStatus(err), "%v", err)
		return
	}
	res, code, err := s.resolve(kindSim, ref{name: req.Scenario, inline: req.ScenarioJSON})
	if err != nil {
		writeError(w, code, "%v", err)
		return
	}
	sc, keys := res.sc, res.tickKeys
	ticks := len(keys)
	header := &simHeaderFrame{Sim: simInfo{
		Name: sc.Name, Title: sc.Title,
		Providers: providerNames(sc), Metrics: sc.Sweep.Metrics, Ticks: ticks,
	}}
	s.serveStream(w, r, "sim", sc.Name, header, func(st *stream) (any, error) {
		// Probe phase: stream the contiguous cached prefix from tick 0,
		// buffered: reserve flushes it before the first solve. The last
		// prefix record is the exact state the next tick starts from
		// (TickRecord doubles as resume state), so the solve phase continues
		// from it; cached ticks beyond the first hole are ignored and simply
		// overwritten by the fresh solve.
		var last *dynamics.TickRecord
		for _, key := range keys {
			if err := st.ctx.Err(); err != nil {
				return nil, err
			}
			val, ok := s.store.Lookup(key)
			if !ok {
				break
			}
			u := val.(*tickUnit)
			b, err := appendTickFrame(st.nw.scratch(), u, cache.Hit, st.echoJSON)
			if err == nil {
				err = st.nw.encodedFrame(b, false)
			}
			if err != nil {
				return nil, err
			}
			st.hits++
			last = &u.rec
		}
		if st.hits < ticks {
			if err := simulateRest(st, sc, keys, last); err != nil {
				return nil, err
			}
		}
		return &simDoneFrame{
			Done: true, Ticks: ticks, Solved: st.solved, CacheHits: st.hits,
			ElapsedMS: st.elapsedMS(),
		}, nil
	})
}

// simulateRest restores the engine from the cached prefix's last record (or
// starts it fresh) and solves the remaining ticks live, one frame each.
func simulateRest(st *stream, sc *scenario.Scenario, keys []string, last *dynamics.TickRecord) error {
	if err := st.reserve(); err != nil {
		return err
	}
	eng, err := dynamics.New(sc)
	if err == nil && last != nil {
		err = eng.Restore(*last)
	}
	if err != nil {
		return err
	}
	defer func() {
		st.delta = eng.Stats()
		st.s.metrics.observeSimTicks(st.solved)
	}()
	for eng.Tick() < len(keys) {
		if err := st.ctx.Err(); err != nil {
			return err
		}
		rec := eng.Step()
		u := newTickUnit(rec)
		st.bank("tick", keys[rec.Tick], u, rec.Solver)
		st.solved++
		b, err := appendTickFrame(st.nw.scratch(), u, cache.Miss, st.echoJSON)
		if err == nil {
			err = st.nw.encodedFrame(b, true)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// providerNames lists the scenario's providers in declaration order.
func providerNames(sc *scenario.Scenario) []string {
	names := make([]string, len(sc.Providers))
	for i, p := range sc.Providers {
		names[i] = p.Name
	}
	return names
}
