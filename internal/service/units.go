package service

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strconv"

	"github.com/netecon-sim/publicoption/internal/cache"
	"github.com/netecon-sim/publicoption/internal/dynamics"
	"github.com/netecon-sim/publicoption/internal/scenario"
)

// Cached units and their frames. A unit — a grid cell, a simulation tick, a
// 1-D run — is stored with its JSON encoding, computed once when it enters
// the cache (newCellUnit, newTickUnit, newRunUnit). Every frame that
// carries a unit, solved or cache-served, splices those bytes into its
// envelope: the bytes json.Marshal of the wire struct (cellFrame,
// simTickFrame, RunResponse, scenarioFrame) gives, without encoding the
// unit again on every replay. A unit whose encoding failed (a NaN from a
// degenerate market) stays cached with its error, and every frame of it
// fails with that error instead of bytes.

// cellUnit is a cached grid cell: its values, one per layer in
// GridJob.Layers order, and their encoded "values" object. The layers are
// part of the cell key (scenario.UnitSpec), so the object is a function of
// the key.
type cellUnit struct {
	vals   []float64
	values []byte
	err    error
}

func newCellUnit(job *scenario.GridJob, vals []float64) *cellUnit {
	b, err := json.Marshal(job.ValuesMap(vals))
	return &cellUnit{vals: vals, values: b, err: err}
}

// tickUnit is a cached simulation tick: its record, which a resumed
// simulation restarts from, and the encoded record.
type tickUnit struct {
	rec  dynamics.TickRecord
	json []byte
	err  error
}

func newTickUnit(rec dynamics.TickRecord) *tickUnit {
	b, err := json.Marshal(rec)
	return &tickUnit{rec: rec, json: b, err: err}
}

// runUnit is a cached 1-D run: the encoded RunResult only, since nothing
// reads its tables back.
type runUnit struct {
	json []byte
	err  error
}

func newRunUnit(r *RunResult) *runUnit {
	b, err := json.Marshal(r)
	return &runUnit{json: b, err: err}
}

// traceEcho encodes a stream's or response's trace echo once: the
// `,"trace":"…"` member the wire structs' omitempty Trace field gives, or
// nothing without one.
func traceEcho(trace string) []byte {
	if trace == "" {
		return nil
	}
	b, _ := json.Marshal(trace) // a string always encodes
	return append([]byte(`,"trace":`), b...)
}

// appendCellFrame appends the cellFrame of cell (row, col) at (x, y).
func appendCellFrame(dst []byte, row, col int, x, y float64, u *cellUnit, status cache.Status, echo []byte) ([]byte, error) {
	if u.err != nil {
		return dst, fmt.Errorf("serializing cell (%d, %d) at x=%g, y=%g: %w", row, col, x, y, u.err)
	}
	dst = append(dst, `{"cell":{"row":`...)
	dst = strconv.AppendInt(dst, int64(row), 10)
	dst = append(dst, `,"col":`...)
	dst = strconv.AppendInt(dst, int64(col), 10)
	dst = append(dst, `,"x":`...)
	dst = appendFloat(dst, x)
	dst = append(dst, `,"y":`...)
	dst = appendFloat(dst, y)
	dst = append(dst, `,"values":`...)
	dst = append(dst, u.values...)
	dst = append(dst, '}')
	return appendEnvelope(dst, status, echo), nil
}

// appendTickFrame appends the simTickFrame of a tick.
func appendTickFrame(dst []byte, u *tickUnit, status cache.Status, echo []byte) ([]byte, error) {
	if u.err != nil {
		return dst, fmt.Errorf("serializing tick %d: %w", u.rec.Tick, u.err)
	}
	dst = append(dst, `{"tick":`...)
	dst = append(dst, u.json...)
	return appendEnvelope(dst, status, echo), nil
}

// appendEnvelope closes a unit frame: its cache status, the trace echo and
// the closing brace.
func appendEnvelope(dst []byte, status cache.Status, echo []byte) []byte {
	dst = append(dst, `,"cache":"`...)
	dst = append(dst, status.String()...)
	dst = append(dst, '"')
	dst = append(dst, echo...)
	return append(dst, '}')
}

// appendRunResponse appends the RunResponse of a run. Its error is the
// run's encoding failure, unwrapped.
func appendRunResponse(dst []byte, u *runUnit, status cache.Status, elapsedMS float64, echo []byte) ([]byte, error) {
	if u.err != nil {
		return dst, u.err
	}
	dst = slices.Grow(dst, len(u.json)+runTailMax+len(echo))
	dst = append(dst, u.json[:len(u.json)-1]...)
	return appendRunTail(dst, status, elapsedMS, echo), nil
}

// appendScenarioFrame appends the list-mode scenarioFrame of entry index:
// the RunResponse with the index spliced in as its first member. Its error
// is the run's encoding failure, unwrapped.
func appendScenarioFrame(dst []byte, index int, u *runUnit, status cache.Status, elapsedMS float64, echo []byte) ([]byte, error) {
	if u.err != nil {
		return dst, u.err
	}
	dst = slices.Grow(dst, len(u.json)+runTailMax+len(echo)+len(`{"index":,`)+20)
	dst = append(dst, `{"index":`...)
	dst = strconv.AppendInt(dst, int64(index), 10)
	dst = append(dst, ',')
	dst = append(dst, u.json[1:len(u.json)-1]...)
	return appendRunTail(dst, status, elapsedMS, echo), nil
}

// runTailMax bounds what appendRunTail appends besides the trace echo: the
// longest status, the longest float and the punctuation.
const runTailMax = len(`,"cache":"coalesced","elapsed_ms":}`) + 24

// appendRunTail appends the run envelope's members after the result's and
// closes the object.
func appendRunTail(dst []byte, status cache.Status, elapsedMS float64, echo []byte) []byte {
	dst = append(dst, `,"cache":"`...)
	dst = append(dst, status.String()...)
	dst = append(dst, `","elapsed_ms":`...)
	dst = appendFloat(dst, elapsedMS)
	dst = append(dst, echo...)
	return append(dst, '}')
}

// appendFloat appends f as encoding/json writes a float64: the shortest
// representation, in exponent form below 1e-6 or from 1e21 in magnitude,
// with a single-digit negative exponent written without its leading zero.
// f must be finite: json.Marshal rejects NaN and ±Inf.
func appendFloat(dst []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) { //pubopt:allow(floatcmp): encoding/json's own exact zero test, which writes ±0 in 'f' form
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-07 → e-7
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}
