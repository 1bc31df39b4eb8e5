package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/netecon-sim/publicoption/internal/numeric"
)

// quantile is numeric.Quantile that answers 0 for an empty sample instead of
// panicking: a metric with no samples fails the finiteness checks elsewhere.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return numeric.Quantile(xs, q)
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// trimmedMean is the mean of xs without its lowest and highest tenth: it
// averages over the inputs, which vary in cost, while a burst of host
// contention on a few samples moves it little.
func trimmedMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := len(s) / 10
	return numeric.Mean(s[k : len(s)-k])
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// ratio divides, answering 0 for an empty base so ratios of idle layers stay
// finite.
func ratio(num, den float64) float64 {
	if den <= 0 || math.IsNaN(den) {
		return 0
	}
	return num / den
}

// runtimeSampler reads the runtime/metrics the benchmark reports: heap
// allocation totals, GC CPU time and live heap. Reading them does not stop
// the world, so samples can be taken at every unit boundary.
type runtimeSampler struct{ s []metrics.Sample }

// runtimeStats is one runtime sample.
type runtimeStats struct {
	allocBytes, allocObjects uint64
	gcCPU, totalCPU          float64
	heapBytes                uint64
}

func newRuntimeSampler() *runtimeSampler {
	names := []string{
		"/gc/heap/allocs:bytes",
		"/gc/heap/allocs:objects",
		"/cpu/classes/gc/total:cpu-seconds",
		"/cpu/classes/total:cpu-seconds",
		"/memory/classes/heap/objects:bytes",
	}
	s := make([]metrics.Sample, len(names))
	for i, n := range names {
		s[i].Name = n
	}
	return &runtimeSampler{s: s}
}

func (r *runtimeSampler) read() runtimeStats {
	metrics.Read(r.s)
	u := func(i int) uint64 {
		if r.s[i].Value.Kind() == metrics.KindUint64 {
			return r.s[i].Value.Uint64()
		}
		return 0
	}
	f := func(i int) float64 {
		if r.s[i].Value.Kind() == metrics.KindFloat64 {
			return r.s[i].Value.Float64()
		}
		return 0
	}
	return runtimeStats{
		allocBytes: u(0), allocObjects: u(1),
		gcCPU: f(2), totalCPU: f(3),
		heapBytes: u(4),
	}
}

// peakRSSMiB reads the process's peak resident set size (VmHWM) from
// /proc/self/status; 0 where the file is unavailable.
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		fields := strings.Fields(line)
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// cpuTime returns the CPU time the process has used, user plus system.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// digestJSON hashes the canonical JSON of the generated inputs.
func digestJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return "unhashable: " + err.Error()
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// span is one traced interval: a call the benchmark made into a layer.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's origin
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"` // index of the enclosing span, -1 for a root
	Unit   int32  `json:"unit"`   // shared id of the unit the span belongs to
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer records spans in memory; they are written out when the run ends.
// It is safe for concurrent use (grid workers record from their own
// goroutines).
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), spans: make([]span, 0, 1<<16)}
}

// begin opens a span and returns its index. A nil tracer records nothing and
// returns -1, so untraced code paths call through unchanged.
func (t *tracer) begin(name string, parent, unit int32) int32 {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.origin))
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: now, Parent: parent, Unit: unit})
	i := int32(len(t.spans) - 1)
	t.mu.Unlock()
	return i
}

// end closes span i.
func (t *tracer) end(i int32) {
	if t == nil || i < 0 {
		return
	}
	now := int64(time.Since(t.origin))
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// add records an already-measured span.
func (t *tracer) add(name string, start, end time.Time, parent, unit int32) int32 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: int64(start.Sub(t.origin)), End: int64(end.Sub(t.origin)), Parent: parent, Unit: unit})
	i := int32(len(t.spans) - 1)
	t.mu.Unlock()
	return i
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// durations returns the durations in ms of every span with the given name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// covered returns how much of [lo, hi) the given intervals cover, counting
// overlaps once.
func covered(lo, hi int64, iv [][2]int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total int64
	cur := lo
	for _, x := range iv {
		s, e := max(x[0], cur), min(x[1], hi)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// selfTimes returns, per span name, the summed self time in ms: each span's
// duration minus the part of it its child spans cover.
func selfTimes(spans []span) map[string]float64 {
	children := make(map[int32][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]float64)
	for i, s := range spans {
		self := s.End - s.Start - covered(s.Start, s.End, children[int32(i)])
		out[s.Name] += float64(self) / 1e6
	}
	return out
}
