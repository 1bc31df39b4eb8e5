package service

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// Route transcripts: every endpoint's responses, cold and warm, captured as
// golden files under testdata/transcripts. Any change to what a route
// answers — status, content type, body bytes, frame order — fails the
// replay. Run `go test ./internal/service -run TestRouteTranscripts -update`
// to rewrite the goldens after an intended wire change, and review the diff.

var updateTranscripts = flag.Bool("update", false, "rewrite the route transcripts under testdata/transcripts")

// transcriptStep is one request of a route transcript.
type transcriptStep struct {
	name         string
	method, path string
	body         string
	// disconnectAfter > 0 makes the client vanish after that many frames.
	disconnectAfter int
}

func postStep(name, path, body string) transcriptStep {
	return transcriptStep{name: name, method: "POST", path: path, body: body}
}

func getStep(name, path string) transcriptStep {
	return transcriptStep{name: name, method: "GET", path: path}
}

// tinyRunJSON is a cheap inline 1-D scenario.
const tinyRunJSON = `{"name": "inline-tiny", "title": "t",
	"population": {"kind": "archetypes"},
	"providers": [{"name": "a", "gamma": 1}],
	"sweep": {"axis": "nu", "values": [1000, 3000]}}`

func routeTranscripts() map[string][]transcriptStep {
	tinyGrid := tinyGridJSON("tiny-grid", "1, 2")
	refined := tinyRefinedGridJSON("tiny-refined", `{"tolerance": 0.02, "max_depth": 3, "probes": 8}`)
	unverified := tinyRefinedGridJSON("tiny-unverified", `{"tolerance": 0.02, "max_depth": 2, "probes": -1}`)
	list := fmt.Sprintf(`{"scenarios": ["archetypes-capacity", %s, "no-such-scenario",
		"po-sizing-gamma-nu", "dyn-convergence", %s, %s, {"name": "bad name!"}]}`,
		tinyRunJSON, tinyGrid, tinySimJSON("inline-sim", 2))
	oversizedList, _ := json.Marshal(map[string]any{"scenarios": make([]string, maxBatchScenarios+1)})
	return map[string][]transcriptStep{
		"runs.txt": {
			postStep("named cold", "/v1/runs", `{"scenario": "archetypes-capacity"}`),
			postStep("named warm", "/v1/runs", `{"scenario": "archetypes-capacity"}`),
			postStep("inline cold", "/v1/runs", fmt.Sprintf(`{"scenario_json": %s}`, tinyRunJSON)),
			postStep("inline warm", "/v1/runs", fmt.Sprintf(`{"scenario_json": %s, "workers": 1}`, tinyRunJSON)),
			postStep("empty body", "/v1/runs", ""),
			postStep("neither field", "/v1/runs", `{}`),
			postStep("both fields", "/v1/runs", `{"scenario": "x", "scenario_json": {"name": "y"}}`),
			postStep("unknown name", "/v1/runs", `{"scenario": "no-such"}`),
			postStep("unknown field", "/v1/runs", `{"scenario": "neutral-baseline", "bogus": 1}`),
			postStep("invalid inline", "/v1/runs", `{"scenario_json": {"name": "bad name!"}}`),
			postStep("trailing garbage", "/v1/runs", `{"scenario": "neutral-baseline"} {}`),
			postStep("oversized body", "/v1/runs", `{"scenario": "`+strings.Repeat("x", maxRequestBody)+`"}`),
			postStep("named grid", "/v1/runs", `{"scenario": "po-sizing-gamma-nu"}`),
			postStep("named dynamics", "/v1/runs", `{"scenario": "dyn-convergence"}`),
			postStep("inline grid", "/v1/runs", fmt.Sprintf(`{"scenario_json": %s}`, tinyGrid)),
			postStep("inline dynamics", "/v1/runs", fmt.Sprintf(`{"scenario_json": %s}`, tinySimJSON("x", 2))),
		},
		"batch.txt": {
			postStep("list cold", "/v1/batch", list),
			postStep("list warm", "/v1/batch", list),
			// One row worker: cells stream in completion order, so with
			// several workers the frame order would vary (the values would
			// not — every row solves on a fresh solver).
			postStep("grid cold", "/v1/batch", fmt.Sprintf(`{"grid_json": %s, "workers": 1}`, tinyGrid)),
			postStep("grid warm", "/v1/batch", fmt.Sprintf(`{"grid_json": %s}`, tinyGrid)),
			postStep("grid resized", "/v1/batch", fmt.Sprintf(`{"grid_json": %s, "workers": 1}`, tinyGridJSON("tiny-grid-grown", "1, 1.5, 2"))),
			postStep("refine cold", "/v1/batch", fmt.Sprintf(`{"grid_json": %s, "refine": true}`, refined)),
			postStep("refine warm", "/v1/batch", fmt.Sprintf(`{"grid_json": %s, "refine": true}`, refined)),
			postStep("empty body", "/v1/batch", ""),
			postStep("neither mode", "/v1/batch", `{}`),
			postStep("both modes", "/v1/batch", `{"scenarios": ["neutral-baseline"], "grid": "po-sizing-gamma-nu"}`),
			postStep("grid and grid_json", "/v1/batch", `{"grid": "po-sizing-gamma-nu", "grid_json": {"name": "x"}}`),
			postStep("unknown grid", "/v1/batch", `{"grid": "no-such-grid"}`),
			postStep("1-D scenario as grid", "/v1/batch", `{"grid": "neutral-baseline"}`),
			postStep("dynamics as grid", "/v1/batch", `{"grid": "dyn-convergence"}`),
			postStep("inline 1-D as grid", "/v1/batch", fmt.Sprintf(`{"grid_json": %s, "refine": true}`, tinyRunJSON)),
			postStep("invalid inline grid", "/v1/batch", `{"grid_json": {"name": "bad name!"}}`),
			postStep("unknown field", "/v1/batch", `{"grid": "po-sizing-gamma-nu", "bogus": 1}`),
			postStep("refine in list mode", "/v1/batch", `{"scenarios": ["neutral-baseline"], "refine": true}`),
			postStep("oversized list", "/v1/batch", string(oversizedList)),
		},
		"query.txt": {
			postStep("POST surrogate cold", "/v1/query", fmt.Sprintf(`{"grid_json": %s, "x": 0.3, "y": 1.5}`, refined)),
			postStep("POST surrogate warm", "/v1/query", fmt.Sprintf(`{"grid_json": %s, "x": 0.25, "y": 0.7}`, refined)),
			// The built-in rebate grid's surrogate misses its tolerance, so
			// named queries fall back to a point solve.
			getStep("GET unverified fallback cold", "/v1/query?grid=po-rebate-sigma-nu&x=0.5&y=100"),
			getStep("GET unverified fallback warm", "/v1/query?grid=po-rebate-sigma-nu&x=0.5&y=100"),
			getStep("GET unverified fallback, new point", "/v1/query?grid=po-rebate-sigma-nu&x=0.3&y=80"),
			postStep("POST unverified fallback cold", "/v1/query", fmt.Sprintf(`{"grid_json": %s, "x": 0.31, "y": 1.4}`, unverified)),
			postStep("POST unverified fallback warm", "/v1/query", fmt.Sprintf(`{"grid_json": %s, "x": 0.31, "y": 1.4}`, unverified)),
			postStep("POST out of domain", "/v1/query", fmt.Sprintf(`{"grid_json": %s, "x": 9.5, "y": 1.5}`, refined)),
			getStep("GET missing x", "/v1/query?grid=po-sizing-gamma-nu&y=1"),
			getStep("GET bad y", "/v1/query?grid=po-sizing-gamma-nu&x=1&y=banana"),
			getStep("GET no grid", "/v1/query?x=1&y=1"),
			getStep("GET 1-D scenario", "/v1/query?grid=neutral-baseline&x=1&y=1"),
			postStep("POST empty body", "/v1/query", ""),
			postStep("POST unknown grid", "/v1/query", `{"grid": "no-such", "x": 1, "y": 1}`),
			postStep("POST both modes", "/v1/query", `{"grid": "a", "grid_json": {"name": "b"}, "x": 1, "y": 1}`),
			postStep("POST dynamics scenario", "/v1/query", `{"grid": "dyn-convergence", "x": 1, "y": 1}`),
			postStep("POST invalid inline", "/v1/query", `{"grid_json": {"name": "bad name!"}, "x": 1, "y": 1}`),
			postStep("POST unknown field", "/v1/query", `{"grid": "a", "x": 1, "y": 1, "zz": 2}`),
		},
		"simulate.txt": {
			postStep("inline cold", "/v1/simulate", fmt.Sprintf(`{"scenario_json": %s}`, tinySimJSON("tiny-sim", 5))),
			postStep("inline warm", "/v1/simulate", fmt.Sprintf(`{"scenario_json": %s}`, tinySimJSON("tiny-sim", 5))),
			{name: "disconnect after two ticks", method: "POST", path: "/v1/simulate",
				body: fmt.Sprintf(`{"scenario_json": %s}`, tinySimJSON("tiny-sim-dc", 8)), disconnectAfter: 3},
			postStep("resumed after disconnect", "/v1/simulate", fmt.Sprintf(`{"scenario_json": %s}`, tinySimJSON("tiny-sim-dc", 8))),
			postStep("named cold", "/v1/simulate", `{"scenario": "dyn-convergence"}`),
			postStep("named warm", "/v1/simulate", `{"scenario": "dyn-convergence"}`),
			postStep("empty body", "/v1/simulate", ""),
			postStep("neither field", "/v1/simulate", `{}`),
			postStep("both fields", "/v1/simulate", fmt.Sprintf(`{"scenario": "dyn-convergence", "scenario_json": %s}`, tinySimJSON("x", 2))),
			postStep("unknown name", "/v1/simulate", `{"scenario": "no-such-scenario"}`),
			postStep("static scenario", "/v1/simulate", `{"scenario": "neutral-baseline"}`),
			postStep("grid scenario", "/v1/simulate", `{"scenario": "po-sizing-gamma-nu"}`),
			postStep("invalid inline", "/v1/simulate", `{"scenario_json": {"name": "bad name!"}}`),
			postStep("static inline", "/v1/simulate", fmt.Sprintf(`{"scenario_json": %s}`, tinyRunJSON)),
			postStep("unknown field", "/v1/simulate", `{"scenario": "dyn-convergence", "bogus": 1}`),
		},
	}
}

func TestRouteTranscripts(t *testing.T) {
	for file, steps := range routeTranscripts() {
		t.Run(file, func(t *testing.T) {
			t.Parallel()
			s := New(Options{Trace: true, Workers: 1})
			var got strings.Builder
			for _, st := range steps {
				transcribe(t, s, st, &got)
			}
			golden := filepath.Join("testdata", "transcripts", file)
			if *updateTranscripts {
				if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with -update to capture)", err)
			}
			if report := lineDiff(got.String(), string(want)); report != "" {
				t.Fatalf("%s %s", golden, report)
			}
		})
	}
}

// maxReportedDiffs caps the differing lines a failed replay prints.
const maxReportedDiffs = 5

// lineDiff compares two transcripts line by line and returns "" when they
// match, else how many lines differ followed by the first few of them, so
// a replay tells one drifted line from a moved file.
func lineDiff(got, want string) string {
	gotLines := strings.Split(got, "\n")
	wantLines := strings.Split(want, "\n")
	var n int
	var shown strings.Builder
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g == w {
			continue
		}
		if n++; n <= maxReportedDiffs {
			fmt.Fprintf(&shown, "\nline %d:\n got: %s\nwant: %s", i+1, g, w)
		}
	}
	if n == 0 {
		return ""
	}
	return fmt.Sprintf("differs on %d of %d lines (golden %d); first %d:%s",
		n, max(len(gotLines), len(wantLines)), len(wantLines), min(n, maxReportedDiffs), shown.String())
}

func TestLineDiffCountsEveryDifference(t *testing.T) {
	if r := lineDiff("a\nb\n", "a\nb\n"); r != "" {
		t.Fatalf("equal transcripts: %q", r)
	}
	want := "1\n2\n3\n4\n5\n6\n7\n8\n"
	got := "1\nx2\nx3\n4\nx5\nx6\nx7\nx8\nx9\n"
	r := lineDiff(got, want)
	if !strings.HasPrefix(r, "differs on 7 of 10 lines (golden 9); first 5:") {
		t.Fatalf("report %q", r)
	}
	if !strings.Contains(r, "line 7:") || strings.Contains(r, "line 8:") {
		t.Fatalf("report should show lines 2, 3, 5, 6 and 7 only: %q", r)
	}
}

// transcribe runs one step and appends its normalized transcript: the step
// name, request line, status and content type, then the body one frame per
// line.
func transcribe(t *testing.T, s *Server, st transcriptStep, out *strings.Builder) {
	t.Helper()
	fmt.Fprintf(out, "=== %s\n%s %s\n", st.name, st.method, st.path)
	var body, ctype string
	if st.disconnectAfter > 0 {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		w := &cancelingWriter{after: st.disconnectAfter, cancel: cancel}
		r := httptest.NewRequest(st.method, st.path, strings.NewReader(st.body)).WithContext(ctx)
		s.ServeHTTP(w, r)
		body, ctype = w.buf.String(), w.Header().Get("Content-Type")
		fmt.Fprintf(out, "(client disconnected) %s\n", ctype)
	} else {
		w := do(t, s, st.method, st.path, st.body)
		body, ctype = w.Body.String(), w.Header().Get("Content-Type")
		fmt.Fprintf(out, "%d %s\n", w.Code, ctype)
	}
	for _, line := range normalizeFrames(t, body) {
		out.WriteString(line + "\n")
	}
}

// volatileField matches the fields that differ between identical requests:
// wall times and echoed trace IDs. encoding/json never emits either as an
// object's first field, so each match carries its leading comma.
var volatileField = regexp.MustCompile(`,"(?:elapsed_ms|trace)":(?:"[0-9a-f]*"|[-+.0-9eE]+)`)

// normalizeFrames splits a body into frames, drops volatile fields, and
// sorts dense-grid cell frames by (row, col) in place: solved cells stream
// in completion order, which depends on scheduling.
func normalizeFrames(t *testing.T, body string) []string {
	t.Helper()
	var lines []string
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		lines = append(lines, volatileField.ReplaceAllString(line, ""))
	}
	type cellAt struct{ row, col int }
	var slots []int
	var cells []string
	at := make(map[string]cellAt)
	for i, line := range lines {
		if !strings.HasPrefix(line, `{"cell":`) {
			continue
		}
		var f struct {
			Cell struct{ Row, Col int }
		}
		if err := json.Unmarshal([]byte(line), &f); err != nil {
			t.Fatalf("cell frame %q: %v", line, err)
		}
		slots = append(slots, i)
		cells = append(cells, line)
		at[line] = cellAt{f.Cell.Row, f.Cell.Col}
	}
	sort.SliceStable(cells, func(a, b int) bool {
		ca, cb := at[cells[a]], at[cells[b]]
		return ca.row < cb.row || ca.row == cb.row && ca.col < cb.col
	})
	for k, i := range slots {
		lines[i] = cells[k]
	}
	return lines
}
