package alloc

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
)

// updateKernel rewrites the kernel golden from the current solver:
// go test ./internal/alloc -run TestKernelGolden -update
var updateKernel = flag.Bool("update", false, "rewrite testdata/kernel_golden.json")

const kernelGolden = "testdata/kernel_golden.json"

// kernelRecord is one Workspace solve of the golden: where it was solved,
// its level and rates as float bits, and the work it took.
type kernelRecord struct {
	Mech       string `json:"mech"`
	Pass       string `json:"pass"` // "warm": one sequence; "reset": Reset before each solve
	Pop        int    `json:"pop"`
	Nu         string `json:"nu"`
	Level      string `json:"level"`
	Theta      string `json:"theta"`
	Solves     uint64 `json:"solves"`
	Evals      uint64 `json:"evals"`
	Warm       uint64 `json:"warm"`
	Cold       uint64 `json:"cold"`
	Bisections uint64 `json:"bisections"`
	Residual   string `json:"residual"`
}

// bitsHex renders float bits as 16 hex digits per value.
func bitsHex(xs ...float64) string {
	var b strings.Builder
	for _, x := range xs {
		fmt.Fprintf(&b, "%016x", math.Float64bits(x))
	}
	return b.String()
}

// kernelRecords solves every golden mechanism over the golden populations
// and ν stations twice on one workspace: warm in sequence, then with a
// Reset before each solve.
func kernelRecords() []kernelRecord {
	pops := goldenPopulations()
	var out []kernelRecord
	for _, mech := range goldenMechanisms() {
		w := NewWorkspace(mech)
		for _, pass := range []string{"warm", "reset"} {
			for pi, pop := range pops {
				for _, nu := range nuGridFor(pop) {
					if pass == "reset" {
						w.Reset()
					}
					before := w.Stats()
					res := w.Solve(nu, pop)
					d := w.Stats().Since(before)
					out = append(out, kernelRecord{
						Mech: mech.Name(), Pass: pass, Pop: pi,
						Nu: bitsHex(nu), Level: bitsHex(res.Level), Theta: bitsHex(res.Theta...),
						Solves: d.Solves, Evals: d.Evals, Warm: d.WarmBrackets, Cold: d.ColdBrackets,
						Bisections: d.Bisections, Residual: bitsHex(w.Stats().Residual),
					})
				}
			}
		}
	}
	return out
}

// TestKernelGolden pins the kernel bit for bit: every solve's level, rates,
// work counters and residual must match the golden, which was captured
// before the built-in mechanisms shared one flattened evaluation path.
// PerCPMaxMin's residual is exempt: it also measures its rates'
// work-conservation error, which the capture did not, so it may only grow.
func TestKernelGolden(t *testing.T) {
	got := kernelRecords()
	if *updateKernel {
		var b bytes.Buffer
		b.WriteString("[\n")
		for i, r := range got {
			line, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			b.Write(line)
			if i < len(got)-1 {
				b.WriteByte(',')
			}
			b.WriteByte('\n')
		}
		b.WriteString("]\n")
		if err := os.WriteFile(kernelGolden, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(kernelGolden)
	if err != nil {
		t.Fatal(err)
	}
	var want []kernelRecord
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d solves, golden has %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Mech == (PerCPMaxMin{}).Name() {
			g.Residual, w.Residual = "", ""
		}
		if g != w {
			t.Fatalf("solve %d (%s %s pop %d ν %s):\n got  %+v\n want %+v", i, w.Mech, w.Pass, w.Pop, w.Nu, g, w)
		}
	}
}
