package service

import (
	"bytes"
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"github.com/netecon-sim/publicoption/internal/cache"
	"github.com/netecon-sim/publicoption/internal/obs"
	"github.com/netecon-sim/publicoption/internal/scenario"
)

// The request pipeline the package comment describes: resolve, then either
// cached (one result) or serveStream (an NDJSON stream of units).

// Cache key namespaces, one per kind of cached value. Every content address
// the server computes is cache.Key(namespace, content).
// A cell, tick or run value carries its JSON encoding (units.go).
const (
	nsRun       = "run/scenario/v1"     // *runUnit, a 1-D scenario's encoded RunResult; content: its canonical JSON
	nsCell      = "grid/cell/v1"        // *cellUnit, one value per layer and their encoded object; content: GridJob.UnitSpec, then the cell's (x, y) (cellKeys)
	nsSurrogate = "refine/surrogate/v1" // *refine.Result of a grid; content: its canonical JSON
	nsTick      = "sim/tick/v1"         // *tickUnit, a dynamics.TickRecord and its encoding; content: the canonical JSON, then the tick index (tickKeys)
)

// scenarioKind is what a scenario declares and what an endpoint solves.
type scenarioKind int

const (
	kindRun  scenarioKind = iota // a 1-D sweep
	kindGrid                     // a 2-D grid
	kindSim                      // a dynamics simulation
)

// kindRoutes names, per kind, the endpoint that solves it and the request
// fields that reference a scenario there.
var kindRoutes = [...]struct{ what, endpoint, nameField, inlineField string }{
	kindRun:  {"a 1-D sweep", "/v1/runs", "scenario", "scenario_json"},
	kindGrid: {"a 2-D grid", "/v1/batch", "grid", "grid_json"},
	kindSim:  {"a dynamics simulation", "/v1/simulate", "scenario", "scenario_json"},
}

func kindOf(sc *scenario.Scenario) scenarioKind {
	switch {
	case sc.IsGrid():
		return kindGrid
	case sc.IsDynamic():
		return kindSim
	}
	return kindRun
}

// ref is a request's reference to a scenario: a registered name or an
// inline definition. entry marks a /v1/batch list element, where the
// element's JSON type already picked the form.
type ref struct {
	name   string
	inline json.RawMessage
	entry  bool
}

// resolved is a scenario compiled for serving. Registered scenarios are
// resolved once, at startup, and repeated inline grid and simulation
// definitions once per memo entry (inlineMemo), so a warm request never
// re-derives anything.
type resolved struct {
	// sc is read-only: for registered names it is the registry copy every
	// request shares.
	sc    *scenario.Scenario
	named bool
	// key is the content key of the scenario's result, the digest of its
	// canonical JSON: under nsRun for 1-D sweeps and nsSurrogate for grids.
	// For simulations it is the digest under nsTick that every tick key
	// extends (tickKeys).
	key string

	// The compiled form, built by compile under once and read-only after
	// it: a grid's job, its cell key space and a pool of its GridWorkers
	// for /v1/query fallbacks; a simulation's tick keys. code and err are
	// compile's failure.
	once     sync.Once
	code     int
	err      error
	job      *scenario.GridJob
	cellKey  func(x, y float64) string
	workers  sync.Pool
	tickKeys []string
}

func newResolved(sc *scenario.Scenario, named bool) (*resolved, error) {
	canon, err := sc.CanonicalJSON()
	if err != nil {
		return nil, fmt.Errorf("serializing scenario: %v", err)
	}
	res := &resolved{sc: sc, named: named}
	ns := nsRun
	switch kindOf(sc) {
	case kindGrid:
		ns = nsSurrogate
	case kindSim:
		ns = nsTick
	}
	res.key, err = cache.Key(ns, canon)
	return res, err
}

// compile builds the scenario's compiled form on first need and returns
// its failure, if any, with the HTTP status it maps to: 400 for a grid
// that does not compile. A 1-D sweep has nothing to compile.
func (res *resolved) compile() (int, error) {
	res.once.Do(func() {
		switch kindOf(res.sc) {
		case kindGrid:
			job, err := res.sc.CompileGrid()
			if err != nil {
				res.code, res.err = http.StatusBadRequest, err
				return
			}
			key, err := cellKeys(job)
			if err != nil {
				res.code, res.err = http.StatusInternalServerError, fmt.Errorf("hashing grid: %v", err)
				return
			}
			res.job, res.cellKey = job, key
			res.workers.New = func() any { return job.NewWorker() }
		case kindSim:
			res.tickKeys = tickKeys(res.key, res.sc.Dynamics.Ticks)
		}
	})
	return res.code, res.err
}

// weight is what a compiled scenario holds in memory, in the units the
// inline memo bounds: a grid's materialised CPs; a simulation's tick keys
// and explicit CPs.
func (res *resolved) weight() int {
	if res.job != nil {
		return res.job.CPs()
	}
	return len(res.tickKeys) + len(res.sc.Population.CPs)
}

// resolve maps ref to a compiled scenario of the wanted kind, or to an
// error and the HTTP status it maps to: 400 for a malformed reference, a
// scenario of another kind or a grid that does not compile, 404 for an
// unknown name.
func (s *Server) resolve(want scenarioKind, r ref) (*resolved, int, error) {
	inline := len(r.inline) > 0
	if !r.entry && (r.name == "") == !inline {
		rt := kindRoutes[want]
		return nil, http.StatusBadRequest, fmt.Errorf("give exactly one of %q (a registered name) or %q (an inline definition)", rt.nameField, rt.inlineField)
	}
	if !inline {
		res, ok := s.named[r.name]
		if !ok {
			return nil, http.StatusNotFound, fmt.Errorf("unknown scenario %q", r.name)
		}
		if err := wrongKind(want, r, res.sc); err != nil {
			return nil, http.StatusBadRequest, err
		}
		if code, err := res.compile(); err != nil {
			return nil, code, err
		}
		return res, 0, nil
	}
	return s.resolveInline(want, r)
}

// resolveInline resolves an inline definition. A grid or simulation body
// that resolves and compiles is memoized by the SHA-256 of its bytes, so a
// repeated body skips parsing, validation, canonicalisation, hashing and
// compiling; a memo hit still answers wrongKind's 400 at an endpoint of
// another kind. 1-D bodies, which serve-style traffic sends once each, and
// failed resolutions are never stored.
func (s *Server) resolveInline(want scenarioKind, r ref) (*resolved, int, error) {
	memo := want != kindRun
	var sum [sha256.Size]byte
	if memo {
		sum = sha256.Sum256(r.inline)
		if res := s.inline.get(sum); res != nil {
			if err := wrongKind(want, r, res.sc); err != nil {
				return nil, http.StatusBadRequest, err
			}
			return res, 0, nil
		}
	}
	sc, err := scenario.Load(bytes.NewReader(r.inline))
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	if err := wrongKind(want, r, sc); err != nil {
		return nil, http.StatusBadRequest, err
	}
	res, err := newResolved(sc, false)
	if err != nil {
		return nil, http.StatusInternalServerError, err
	}
	if code, err := res.compile(); err != nil {
		return nil, code, err
	}
	if memo {
		s.inline.put(sum, res)
	}
	return res, 0, nil
}

// The inline memo's bounds. They are constants, not options: the memo
// exists for clients that replay a few definitions, and beyond these a
// body is resolved per request as if there were no memo.
const (
	memoBodies = 64      // memoized definitions
	memoWeight = 1 << 16 // total weight (resolved.weight) of the memoized definitions
)

// inlineMemo maps the SHA-256 of an inline definition to its compiled
// scenario: an LRU bounded by memoBodies entries and memoWeight in total.
// A definition heavier than memoWeight on its own is never stored.
type inlineMemo struct {
	mu     sync.Mutex
	lru    list.List // of *memoEntry, most recently used first
	byHash map[[sha256.Size]byte]*list.Element
	weight int
}

type memoEntry struct {
	sum    [sha256.Size]byte
	res    *resolved
	weight int
}

func newInlineMemo() *inlineMemo {
	return &inlineMemo{byHash: make(map[[sha256.Size]byte]*list.Element)}
}

func (m *inlineMemo) get(sum [sha256.Size]byte) *resolved {
	m.mu.Lock()
	defer m.mu.Unlock()
	el, ok := m.byHash[sum]
	if !ok {
		return nil
	}
	m.lru.MoveToFront(el)
	return el.Value.(*memoEntry).res
}

// put stores res under sum, evicting the least recently used entries
// until both bounds hold again.
func (m *inlineMemo) put(sum [sha256.Size]byte, res *resolved) {
	w := res.weight()
	if w > memoWeight {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.byHash[sum]; ok {
		return // a concurrent request stored the same body first
	}
	m.byHash[sum] = m.lru.PushFront(&memoEntry{sum: sum, res: res, weight: w})
	m.weight += w
	for m.lru.Len() > memoBodies || m.weight > memoWeight {
		e := m.lru.Remove(m.lru.Back()).(*memoEntry)
		delete(m.byHash, e.sum)
		m.weight -= e.weight
	}
}

// wrongKind rejects a scenario the wanted kind of solve cannot take,
// pointing the client at the endpoint that can.
func wrongKind(want scenarioKind, r ref, sc *scenario.Scenario) error {
	got := kindOf(sc)
	switch {
	case got == want:
		return nil
	case want == kindSim:
		return fmt.Errorf("scenario %q has no dynamics block; run it via POST /v1/runs or /v1/batch", sc.Name)
	case got == kindRun:
		return fmt.Errorf("scenario %q declares a 1-D sweep; use \"scenarios\" for it or add a sweep.grid axis", sc.Name)
	case got == kindSim && (want == kindGrid || r.entry):
		return fmt.Errorf("scenario %q is a dynamics simulation; stream it via POST /v1/simulate", sc.Name)
	case r.entry:
		return fmt.Errorf("scenario %q is a 2-D grid; submit it via the \"grid\" field", sc.Name)
	}
	rt := kindRoutes[got]
	field := rt.nameField
	if len(r.inline) > 0 {
		field = rt.inlineField
	}
	return fmt.Errorf("scenario %q is %s; run it via POST %s with the %q field", sc.Name, rt.what, rt.endpoint, field)
}

// cached returns key's value, running solve on a miss. solve runs at most
// once per key across concurrent callers, inside a worker-pool slot, and
// gets a sink for its kernel telemetry; a coalesced caller whose ctx ends
// stops waiting. Every call is one solve-duration observation and one
// flight-recorder event (kind, name); a miss logs "solved", a failure
// "solve failed".
func (s *Server) cached(ctx context.Context, kind, name, key string, solve func(stats *obs.Counters) (any, error)) (any, cache.Status, time.Duration, error) {
	start := time.Now()
	// delta is only written when the solve closure runs, and DoContext runs
	// it in this goroutine (coalesced callers never execute it), so no lock.
	var delta obs.SolveStats
	val, status, err := s.store.DoContext(ctx, key, func() (any, error) {
		s.metrics.solveStarted()
		defer s.metrics.solveFinished()
		var sink obs.Counters
		v, err := solve(&sink)
		delta = sink.Snapshot()
		s.counters.Add(delta)
		return v, err
	})
	elapsed := time.Since(start)
	trace := obs.TraceID(ctx)
	ev := obs.Event{
		Time: time.Now(), Trace: trace, Kind: kind, Name: name,
		Key: shortKey(key), Outcome: status.String(),
		DurationMS: ms(elapsed), Solver: delta,
	}
	if err != nil {
		ev.Outcome, ev.Error = "error", err.Error()
		s.logger.Warn("solve failed",
			"kind", kind, "name", name, "key", shortKey(key), "trace", trace, "error", err)
	} else if status == cache.Miss {
		s.logger.Info("solved",
			"kind", kind, "name", name, "key", shortKey(key),
			"elapsed_s", elapsed.Seconds(), "solves", delta.Solves,
			"evals", delta.Evals, "trace", trace)
	}
	s.metrics.observeSolve(ev.Outcome, elapsed.Seconds())
	s.recorder.Record(ev)
	return val, status, elapsed, err
}

// errClientGone marks a failed frame write: the client disconnected, so the
// stream stops without telling anyone. A frame that cannot be serialized
// fails with its serialization error instead, and its stream ends with an
// error frame.
var errClientGone = errors.New("client disconnected mid-stream")

// stream is one NDJSON response between its header frame and its terminal
// frame, as the endpoint's body sees it.
type stream struct {
	s     *Server
	nw    *ndjsonWriter
	ctx   context.Context
	trace string
	kind  string // "grid" or "sim": the closing event's kind
	name  string
	start time.Time

	// The trace ID echoed in unit frames ("" without Options.Trace), and
	// the same encoded once as the spliced frames' trailing member
	// (traceEcho).
	echo     string
	echoJSON []byte

	// Set by the body: units served from the cache and solved, the solves'
	// kernel telemetry, and the key the closing event carries, if any.
	hits, solved int
	delta        obs.SolveStats
	key          string

	release func() // the held worker-pool slot, if any
}

// serveStream streams one request: header, then body's unit frames, then
// body's done frame — or an error frame when body fails or panics. A client
// that disconnects gets no terminal frame, and the request no summary
// metric, event or log line; the solver telemetry of work already done is
// still counted. Otherwise the request is one solve-duration observation
// ("miss" if any unit was solved, else "hit"), one summary event, and one
// log line.
func (s *Server) serveStream(w http.ResponseWriter, r *http.Request, kind, name string, header any, body func(st *stream) (done any, err error)) {
	echo := s.echo(r.Context())
	st := &stream{
		s: s, nw: newNDJSONWriter(w, s.metrics), ctx: r.Context(),
		trace: obs.TraceID(r.Context()), echo: echo, echoJSON: traceEcho(echo),
		kind: kind, name: name, start: time.Now(),
	}
	if err := st.nw.bufferedFrame(header); err != nil {
		return
	}
	terminal, err := st.run(body)
	s.counters.Add(st.delta)
	if errors.Is(err, errClientGone) || st.ctx.Err() != nil {
		return
	}
	elapsed := time.Since(st.start)
	ev := obs.Event{
		Time: time.Now(), Trace: st.trace, Kind: kind, Name: name,
		Key: shortKey(st.key), Outcome: cache.Hit.String(),
		DurationMS: ms(elapsed), Solver: st.delta,
	}
	if st.solved > 0 {
		ev.Outcome = cache.Miss.String()
	}
	if err != nil {
		ev.Outcome, ev.Error = "error", err.Error()
		s.logger.Error("stream failed", "kind", kind, "name", name, "trace", st.trace, "error", err)
		terminal = &errorFrame{Error: err.Error()}
	} else {
		s.logger.Info("stream served",
			"kind", kind, "name", name, "solved", st.solved, "cached", st.hits,
			"elapsed_s", elapsed.Seconds(), "solves", st.delta.Solves,
			"evals", st.delta.Evals, "trace", st.trace)
	}
	s.metrics.observeSolve(ev.Outcome, elapsed.Seconds())
	s.recorder.Record(ev)
	//pubopt:allow(streamcheck): terminal frame; the stream ends either way and there is nothing left to abort
	st.nw.frame(terminal)
}

// run calls body, turning a panic into an error — the 200 status is
// committed, so the client must still get a terminal frame — and gives
// back the pool slot body reserved.
func (st *stream) run(body func(st *stream) (any, error)) (done any, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%s stream panicked: %v", st.kind, p)
		}
		if st.release != nil {
			st.release()
			st.s.metrics.solveFinished()
		}
	}()
	return body(st)
}

// reserve claims a worker-pool slot for the stream's solve phase: its
// internal parallelism plays the role of a solve's, so concurrent cold
// streams queue instead of oversubscribing the CPU. It first flushes the
// frames buffered so far, so the client holds them while the stream waits.
// It fails only when the client leaves while queued.
func (st *stream) reserve() error {
	st.nw.flush()
	release, err := st.s.store.ReserveContext(st.ctx)
	if err != nil {
		return err
	}
	st.release = release
	st.s.metrics.solveStarted()
	return nil
}

// bank caches one solved unit, encoded by its caller (newCellUnit,
// newTickUnit), and records it as a flight-recorder event of kind ("cell"
// or "tick") carrying the unit's solver telemetry.
func (st *stream) bank(kind, key string, unit any, solver obs.SolveStats) {
	st.s.store.Put(key, unit)
	st.s.recorder.Record(obs.Event{
		Time: time.Now(), Trace: st.trace, Kind: kind, Name: st.name,
		Key: shortKey(key), Outcome: cache.Miss.String(), Solver: solver,
	})
}

func (st *stream) elapsedMS() float64 { return ms(time.Since(st.start)) }

// ndjsonWriter serializes frames to the response, one JSON object per
// line. A frame that cost a solve is flushed on its own, so results stream
// instead of buffering; frames that cost none (a stream's header, cached
// units) are buffered and go out together at the stream's next flush: before
// it waits for a pool slot or a solve, or with its terminal frame. A failed
// write returns errClientGone; a frame that cannot be serialized, its
// serialization error. Each frame's serialize+write(+flush) time feeds the
// pubopt_batch_frame_write_seconds histogram; for a pre-encoded frame the
// serialization is the splice its caller did.
type ndjsonWriter struct {
	w       http.ResponseWriter
	flusher http.Flusher
	metrics *metrics
	started bool
	// buf is the scratch buffer pre-encoded frames are built in, kept from
	// frame to frame (scratch, encodedFrame).
	buf []byte
}

func newNDJSONWriter(w http.ResponseWriter, m *metrics) *ndjsonWriter {
	flusher, _ := w.(http.Flusher)
	return &ndjsonWriter{w: w, flusher: flusher, metrics: m}
}

// frame writes one NDJSON frame and flushes it. The first frame commits
// the 200 status and the x-ndjson content type; errors after that point
// must travel as error frames, not status codes.
func (nw *ndjsonWriter) frame(v any) error { return nw.write(v, true) }

// bufferedFrame is frame without the flush.
func (nw *ndjsonWriter) bufferedFrame(v any) error { return nw.write(v, false) }

// scratch returns the empty scratch buffer to build a pre-encoded frame in.
func (nw *ndjsonWriter) scratch() []byte { return nw.buf[:0] }

// encodedFrame writes b, one pre-encoded frame without its newline, and
// flushes it when flush is set: a unit frame spliced from the unit's stored
// encoding (units.go). It keeps b's array as the next scratch buffer.
func (nw *ndjsonWriter) encodedFrame(b []byte, flush bool) error {
	b = append(b, '\n')
	nw.buf = b[:0]
	return nw.line(b, flush, time.Now())
}

func (nw *ndjsonWriter) write(v any, flush bool) error {
	start := time.Now()
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("serializing frame: %w", err)
	}
	return nw.line(append(b, '\n'), flush, start)
}

// line writes one newline-terminated frame begun at start.
func (nw *ndjsonWriter) line(b []byte, flush bool, start time.Time) error {
	if !nw.started {
		nw.w.Header().Set("Content-Type", "application/x-ndjson")
		nw.w.WriteHeader(http.StatusOK)
		nw.started = true
	}
	if _, err := nw.w.Write(b); err != nil {
		return errClientGone
	}
	if flush {
		nw.flush()
	}
	nw.metrics.observeFrame(time.Since(start).Seconds())
	return nil
}

// flush sends the frames written so far to the client.
func (nw *ndjsonWriter) flush() {
	if nw.flusher != nil {
		nw.flusher.Flush()
	}
}

// errorFrame reports one failed unit without tearing down the stream:
// list-mode entry failures carry their index and the stream continues; a
// failed grid or simulation stream ends with an index-less one instead of
// its done frame.
type errorFrame struct {
	Index *int   `json:"index,omitempty"`
	Error string `json:"error"`
}

// workers is a request's per-solve parallelism: its own positive override,
// else the server default. It never enters a cache key.
func (s *Server) workers(override int) int {
	if override > 0 {
		return override
	}
	return s.solveWorkers
}

// echo is the trace ID response bodies carry: the request's with
// Options.Trace, else empty.
func (s *Server) echo(ctx context.Context) string {
	if s.trace {
		return obs.TraceID(ctx)
	}
	return ""
}

// cellKeys returns the cache address of job's cells: one digest of the
// job's physics (scenario.UnitSpec), computed here once, then the cell's
// resolved (x, y) in exact hex. The unit is a cell, a pure function of its
// coordinates, so a dense cell, a refinement lattice point or probe and a
// /v1/query fallback at the same (x, y) are one entry.
func cellKeys(job *scenario.GridJob) (func(x, y float64) string, error) {
	space, err := cache.Key(nsCell, job.UnitSpec())
	if err != nil {
		return nil, err
	}
	return func(x, y float64) string {
		return space + "@" + strconv.FormatFloat(x, 'x', -1, 64) + "," + strconv.FormatFloat(y, 'x', -1, 64)
	}, nil
}

// tickKeys returns the cache address of a simulation's ticks in the scheme
// cellKeys uses: one digest of the scenario (its canonical JSON under
// nsTick), then the tick index.
func tickKeys(space string, ticks int) []string {
	keys := make([]string, ticks)
	for t := range keys {
		keys[t] = space + "#" + strconv.Itoa(t)
	}
	return keys
}

// shortKey abbreviates a cache key for logs and events: enough hex to
// correlate, not enough to drown the line.
func shortKey(key string) string {
	if len(key) > 12 {
		return key[:12]
	}
	return key
}

// ms renders a duration in the milliseconds responses and events report.
func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 }
