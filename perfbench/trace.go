package main

import (
	"sort"
	"time"
)

// span is one timed call. Times are nanoseconds since the trace began;
// Parent indexes the enclosing span (-1 for a root); Request is the
// input the call served, or -1 for a batch call over Batch samples.
type span struct {
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Request int    `json:"request"`
	Batch   int    `json:"batch,omitempty"`
	// CPU is the process CPU time spent during the span, recorded for
	// spans opened with beginCPU. It includes the worker goroutines a
	// batched GEMM fans out to and any garbage collection that ran.
	CPU    int64 `json:"cpu_ns,omitempty"`
	cpu0   int64
	hasCPU bool
}

// tracer records spans from a single goroutine, keeping them in memory
// until the run writes them out.
type tracer struct {
	t0    time.Time
	spans []span
	open  int // innermost open span, -1 if none
}

func newTracer() *tracer { return &tracer{t0: time.Now(), open: -1} }

// begin opens a span as a child of the innermost open one.
func (t *tracer) begin(name string, req int) int {
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: t.open, Request: req})
	t.open = len(t.spans) - 1
	return t.open
}

// beginCPU is begin for a span that also records process CPU time.
func (t *tracer) beginCPU(name string, req int) int {
	i := t.begin(name, req)
	t.spans[i].cpu0, t.spans[i].hasCPU = processCPU(), true
	return i
}

// end closes span i, which must be the innermost open span.
func (t *tracer) end(i int) {
	s := &t.spans[i]
	if s.hasCPU {
		s.CPU = processCPU() - s.cpu0
	}
	s.End = int64(time.Since(t.t0))
	t.open = s.Parent
}

// processCPU is selfCPU in nanoseconds; getrusage on this process can
// fail only on a bad argument.
func processCPU() int64 {
	d, err := selfCPU()
	if err != nil {
		panic(err)
	}
	return int64(d)
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its child spans cover (overlapping children are
// counted once).
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, reach), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// layerOf maps span names to the per-layer metric their self time
// counts toward.
var layerOf = map[string]string{
	"isa.decode":         "isa.decode_us",
	"disasm.disassemble": "disasm.disassemble_us",
	"labeling.both":      "labeling.both_us",
	"walk.reset":         "walk.walks_us",
	"walk.random_into":   "walk.walks_us",
	"ngram.reset":        "ngram.count_us",
	"ngram.add_trace":    "ngram.count_us",
	"ngram.merge":        "ngram.count_us",
	"ngram.vectorize":    "ngram.vectorize_us",
	"features.extract":   "features.extract_us",
	"store.join":         "store.join_hit_us",
}

// perRequest sums self time (µs) per request and layer metric.
func perRequest(spans []span, self []int64, n int) map[string][]float64 {
	out := map[string][]float64{}
	for _, name := range layerOf {
		if out[name] == nil {
			out[name] = make([]float64, n)
		}
	}
	for i, s := range spans {
		if name, ok := layerOf[s.Name]; ok && s.Request >= 0 {
			out[name][s.Request] += float64(self[i]) / 1e3
		}
	}
	return out
}
