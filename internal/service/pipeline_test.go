package service

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestStreamRunnerTurnsPanicIntoErrorFrame: a stream body that panics after
// its status is committed still ends the stream with an error frame, is
// metered as a failed solve, and gives its worker-pool slot back.
func TestStreamRunnerTurnsPanicIntoErrorFrame(t *testing.T) {
	s := New(Options{Workers: 1})
	serve := func(body func(st *stream) (any, error)) string {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		w := httptest.NewRecorder()
		s.serveStream(w, httptest.NewRequest("POST", "/", nil).WithContext(ctx),
			"sim", "probe", map[string]string{"header": "probe"}, body)
		return w.Body.String()
	}

	frames := ndjsonFrames(t, serve(func(st *stream) (any, error) {
		if err := st.reserve(); err != nil {
			return nil, err
		}
		if err := st.nw.frame(map[string]int{"unit": 0}); err != nil {
			return nil, err
		}
		panic("tick exploded")
	}))
	if len(frames) != 3 || !frameHas(frames[0], "header") || !frameHas(frames[1], "unit") {
		t.Fatalf("frames %v, want header, unit, error", frames)
	}
	var msg string
	json.Unmarshal(frames[2]["error"], &msg)
	if !strings.Contains(msg, "tick exploded") {
		t.Fatalf("terminal frame %v does not report the panic", frames[2])
	}
	if got := metricValue(t, s, `pubopt_solve_duration_seconds_count{outcome="error"}`); got != 1 {
		t.Fatalf("failed stream counted %g times as an error, want 1", got)
	}
	if got := metricValue(t, s, "pubopt_runs_in_flight"); got != 0 {
		t.Fatalf("pubopt_runs_in_flight = %g after the stream ended, want 0", got)
	}

	// The single pool slot is free again: the next stream can reserve it
	// instead of waiting out its deadline.
	frames = ndjsonFrames(t, serve(func(st *stream) (any, error) {
		if err := st.reserve(); err != nil {
			return nil, err
		}
		return map[string]bool{"done": true}, nil
	}))
	if len(frames) != 2 || !frameHas(frames[1], "done") {
		t.Fatalf("frames %v, want header and done: the pool slot was not released", frames)
	}
}
