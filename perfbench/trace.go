package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call from the benchmark into a layer.
type span struct {
	layer, name string
	start, end  int64 // ns since the tracer started
	parent      int   // index into spans, -1 for a root
	op          int64 // workload op the call belongs to (-1 for set-up)
}

// tracer records spans in memory until exit. A nil tracer records
// nothing, so the untraced runs pay one branch per call site.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span nested in the innermost open span and returns its
// handle for end.
func (t *tracer) begin(layer, name string, op int64) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{layer: layer, name: name, start: int64(time.Since(t.t0)), parent: parent, op: op})
	id := len(t.spans) - 1
	t.stack = append(t.stack, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].end = int64(time.Since(t.t0))
	t.stack = t.stack[:len(t.stack)-1]
}

// do runs fn inside a span.
func (t *tracer) do(layer, name string, op int64, fn func()) {
	id := t.begin(layer, name, op)
	fn()
	t.end(id)
}

// selfNs returns each layer's self time: its spans' durations minus
// the time their direct children cover.
func (t *tracer) selfNs() map[string]int64 {
	out := map[string]int64{}
	if t == nil {
		return out
	}
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	for i, s := range t.spans {
		out[s.layer] += s.end - s.start - child[i]
	}
	return out
}

// sumNs totals the durations of every span with the given name.
func (t *tracer) sumNs(name string) int64 {
	var n int64
	for _, s := range t.spans {
		if s.name == name {
			n += s.end - s.start
		}
	}
	return n
}

// durations returns the duration of every span with the given name,
// in recording order.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, float64(s.end-s.start))
		}
	}
	return out
}

// chromeEvent is one complete ("X") event of the Chrome trace_event
// format, which Perfetto and chrome://tracing load.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome exports the spans as Chrome trace_event JSON. Every call
// is made from the benchmark's one goroutine, so all spans share a
// track and nest by time.
func (t *tracer) writeChrome(path string, meta map[string]any) error {
	evs := make([]chromeEvent, 0, len(t.spans))
	for _, s := range t.spans {
		args := map[string]any{"layer": s.layer}
		if s.op >= 0 {
			args["op"] = s.op
		}
		evs = append(evs, chromeEvent{
			Name: s.name, Cat: s.layer, Ph: "X",
			Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Pid: 1, Tid: 1, Args: args,
		})
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Ts < evs[j].Ts })
	b, err := json.Marshal(map[string]any{
		"traceEvents":     evs,
		"displayTimeUnit": "ms",
		"otherData":       meta,
	})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
