package obs

import (
	"sync"
	"time"
)

// Event is one recorded solve-path span: what happened, for whom, how long
// it took, and what the solver did to produce it. Events are the flight
// recorder's unit and double as the wire shape of GET /debug/events.
type Event struct {
	// Seq is the recorder's monotonically increasing sequence number;
	// gaps in a scrape mean events were overwritten between reads.
	Seq uint64 `json:"seq"`
	// Time is when the span ended (the event is recorded at completion).
	Time time.Time `json:"time"`
	// Trace is the request's trace ID ("" for non-HTTP callers).
	Trace string `json:"trace,omitempty"`
	// Kind classifies the span: "run" (a /v1/runs or batch-list solve),
	// "cell" (one grid cell), "grid" (a whole grid solve), "query" (a
	// refinement surrogate), "sim" (a whole simulation) or "tick" (one
	// simulation tick).
	Kind string `json:"kind"`
	// Name is the scenario or grid name; for cells it is "name[row,col]".
	Name string `json:"name"`
	// Key is a prefix of the content-address cache key, when the span went
	// through the equilibrium cache.
	Key string `json:"key,omitempty"`
	// Outcome is how the cache satisfied the span: "hit", "miss",
	// "coalesced", or "error".
	Outcome string `json:"outcome,omitempty"`
	// DurationMS is the span's wall time in milliseconds.
	DurationMS float64 `json:"duration_ms"`
	// Error carries the failure message for Outcome "error".
	Error string `json:"error,omitempty"`
	// Solver is the solver-telemetry delta attributed to this span (zero
	// for cache hits: no solver ran).
	Solver SolveStats `json:"solver,omitempty"`
}

// Recorder is the bounded in-memory flight recorder: a fixed-capacity ring
// of the last N solve events. Recording is O(1), allocation-free after the
// ring fills, and holds its mutex only across the slot write — never across
// I/O or solver work (the lockhold analyzer patrols this package).
//
// A nil *Recorder is a valid disabled recorder: Record is a no-op and
// Events returns nil.
type Recorder struct {
	mu   sync.Mutex
	buf  []Event
	next uint64 // total events ever recorded; buf[(next-1) % cap] is newest
}

// NewRecorder returns a recorder keeping the last n events; n <= 0 returns
// nil (disabled).
func NewRecorder(n int) *Recorder {
	if n <= 0 {
		return nil
	}
	return &Recorder{buf: make([]Event, 0, n)}
}

// Record stores the event, assigning its sequence number and evicting the
// oldest event once the ring is full.
func (r *Recorder) Record(e Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	e.Seq = r.next
	r.next++
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, e)
	} else {
		r.buf[e.Seq%uint64(cap(r.buf))] = e
	}
	r.mu.Unlock()
}

// Events returns a copy of the recorded events, oldest first.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, len(r.buf))
	if len(r.buf) < cap(r.buf) {
		return append(out, r.buf...)
	}
	start := r.next % uint64(cap(r.buf))
	out = append(out, r.buf[start:]...)
	return append(out, r.buf[:start]...)
}

// Cap returns the ring capacity (0 when disabled).
func (r *Recorder) Cap() int {
	if r == nil {
		return 0
	}
	return cap(r.buf)
}

// Recorded returns how many events have ever been recorded (including
// overwritten ones).
func (r *Recorder) Recorded() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.next
}
