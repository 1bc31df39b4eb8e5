package sweep

import (
	"bytes"
	"strings"
	"testing"
)

func TestSeriesAppend(t *testing.T) {
	var s Series
	s.Append(1, 2)
	s.Append(3, 4)
	if s.Len() != 2 || s.X[1] != 3 || s.Y[1] != 4 {
		t.Fatalf("series = %+v", s)
	}
}

func TestWriteCSV(t *testing.T) {
	tbl := Table{Title: "t", XLabel: "c", YLabel: "psi"}
	tbl.Add(Series{Name: "nu=20", X: []float64{0, 0.5}, Y: []float64{1, 2}})
	tbl.Add(Series{Name: "nu=50", X: []float64{0, 0.5}, Y: []float64{3, 4}})
	var buf bytes.Buffer
	if err := tbl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	wantLines := []string{"series,c,psi", "nu=20,0,1", "nu=20,0.5,2", "nu=50,0,3", "nu=50,0.5,4"}
	for _, w := range wantLines {
		if !strings.Contains(out, w) {
			t.Errorf("CSV missing %q:\n%s", w, out)
		}
	}
}

func TestWriteCSVMismatchedSeries(t *testing.T) {
	tbl := Table{XLabel: "x", YLabel: "y"}
	tbl.Add(Series{Name: "bad", X: []float64{1}, Y: []float64{1, 2}})
	if err := tbl.WriteCSV(&bytes.Buffer{}); err == nil {
		t.Fatal("expected error for mismatched series")
	}
}
