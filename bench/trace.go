package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Spans of one operation
// share Op; a root span has Parent 0. Start and End are nanoseconds since
// the tracer was made.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the spans of one workload run in memory; they are written
// out once, when the benchmark ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its id.
func (t *tracer) add(parent, op int, name string, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return id
}

// open starts a span whose children are recorded before it ends; close
// it with end.
func (t *tracer) open(parent, op int, name string) int {
	now := time.Now()
	return t.add(parent, op, name, now, now)
}

func (t *tracer) end(id int) {
	end := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = end
	t.mu.Unlock()
}

// do records a span around fn.
func (t *tracer) do(parent, op int, name string, fn func() error) error {
	start := time.Now()
	err := fn()
	t.add(parent, op, name, start, time.Now())
	return err
}

// selfTimes sums, per operation and span name, each span's self time:
// its duration minus the part of it that its children cover.
func (t *tracer) selfTimes() map[int]map[string]time.Duration {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]map[string]time.Duration)
	for _, s := range spans {
		self := s.End - s.Start - covered(children[s.ID], s.Start, s.End)
		if out[s.Op] == nil {
			out[s.Op] = make(map[string]time.Duration)
		}
		out[s.Op][s.Name] += time.Duration(self)
	}
	return out
}

// covered is the length of the union of the spans' intervals, clipped to
// [lo, hi).
func covered(spans []span, lo, hi int64) int64 {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var total int64
	cur := lo
	for _, s := range spans {
		a, b := max(s.Start, cur), min(s.End, hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// roots returns the spans without a parent.
func (t *tracer) roots() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Parent == 0 {
			out = append(out, s)
		}
	}
	return out
}

// layerStat is a per-layer number and the count of ops it rests on.
type layerStat struct {
	value float64
	n     int
}

// layerMedians turns self times into per-layer metrics: for each span
// name, the median over the operations that recorded it of the per-op
// self time, in milliseconds.
func layerMedians(self map[int]map[string]time.Duration) map[string]layerStat {
	per := make(map[string][]float64)
	for _, byName := range self {
		for name, d := range byName {
			per[name] = append(per[name], float64(d)/1e6)
		}
	}
	out := make(map[string]layerStat, len(per))
	for name, xs := range per {
		out[name] = layerStat{median(xs), len(xs)}
	}
	return out
}
