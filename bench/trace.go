package main

import (
	"runtime"
	"time"

	"spinngo"
)

// span is one harness-side interval around a call into the program. The
// spans of one workload share its name and hang off one root span
// (Parent -1).
type span struct {
	ID       int    `json:"id"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	Parent   int    `json:"parent"`
	Workload string `json:"workload"`
}

// sample is the cumulative engine and allocator counters at one chunk
// boundary of the traced timed phase.
type sample struct {
	Chunk     int    `json:"chunk"`
	AtNS      int64  `json:"at_ns"`
	Events    uint64 `json:"events"`
	Windows   uint64 `json:"windows"`
	Handoffs  uint64 `json:"handoffs"`
	Mallocs   uint64 `json:"mallocs"`
	HeapAlloc uint64 `json:"heap_alloc"`
	NumGC     uint32 `json:"num_gc"`
	PauseNS   uint64 `json:"gc_pause_ns"`
}

// tracer keeps spans and samples in memory until the run ends. A nil
// tracer records nothing, so the untraced run shares the harness code
// and pays one nil check per call.
type tracer struct {
	workload string
	t0       time.Time
	spans    []span
	open     []int
	samples  []sample
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

// begin opens a span under the innermost open one.
func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{
		ID: id, Name: name, Parent: parent, Workload: t.workload,
		StartNS: time.Since(t.t0).Nanoseconds(),
	})
	t.open = append(t.open, id)
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil {
		return
	}
	id := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[id].EndNS = time.Since(t.t0).Nanoseconds()
}

// timed runs fn, returns its wall time, and records it as a span when
// tracing is on.
func (t *tracer) timed(name string, fn func()) time.Duration {
	t.begin(name)
	start := time.Now()
	fn()
	d := time.Since(start)
	t.end()
	return d
}

// sampleAt records the counters at a chunk boundary.
func (t *tracer) sampleAt(chunk int, m *spinngo.Machine) {
	if t == nil {
		return
	}
	st := m.SimStats()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	t.samples = append(t.samples, sample{
		Chunk: chunk, AtNS: time.Since(t.t0).Nanoseconds(),
		Events: st.Events, Windows: st.Windows, Handoffs: st.Handoffs,
		Mallocs: ms.Mallocs, HeapAlloc: ms.HeapAlloc, NumGC: ms.NumGC, PauseNS: ms.PauseTotalNs,
	})
}
