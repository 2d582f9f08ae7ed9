package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans are
// kept in memory and written out when the run ends.
type span struct {
	Name string `json:"name"`
	// Start and End are Unix nanoseconds, so spans from the
	// benchmark's several processes share one timeline.
	Start int64 `json:"start"`
	End   int64 `json:"end"`
	ID    int   `json:"id"`
	// Parent is the ID of the span that caused this one (-1: none).
	Parent int `json:"parent"`
	// Req identifies the request or binary the span served (-1:
	// none); spans of one request share it.
	Req int `json:"req"`
	// Proc labels the process that recorded the span.
	Proc string `json:"proc,omitempty"`
}

// tracer records spans. A nil tracer records nothing, so untraced
// code paths call it unconditionally.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer {
	if !on {
		return nil
	}
	return &tracer{}
}

// add records a finished span and returns its ID.
func (t *tracer) add(name string, start, end time.Time, parent, req int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Start: start.UnixNano(), End: end.UnixNano(), ID: id, Parent: parent, Req: req})
	return id
}

// open records a span whose end is set later by close.
func (t *tracer) open(name string, parent, req int) int {
	now := time.Now()
	return t.add(name, now, now, parent, req)
}

func (t *tracer) close(id int) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].End = time.Now().UnixNano()
	t.mu.Unlock()
}

// timed runs fn inside a span.
func (t *tracer) timed(name string, parent, req int, fn func()) {
	start := time.Now()
	fn()
	t.add(name, start, time.Now(), parent, req)
}

func (t *tracer) all() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// merge appends one process's spans to the run's, renumbering IDs so
// they stay unique and parents keep pointing at the right span.
func (r *run) merge(proc string, spans []span) {
	base := len(r.spans)
	for _, s := range spans {
		s.ID += base
		if s.Parent >= 0 {
			s.Parent += base
		}
		s.Proc = proc
		r.spans = append(r.spans, s)
	}
}

// selfTimes returns each span's self time in nanoseconds, indexed
// like spans: its duration minus the part of it that its children's
// spans cover. spans must come from one merge (IDs equal indexes).
func selfTimes(spans []span) []int64 {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		ch := kids[s.ID]
		sort.Slice(ch, func(a, b int) bool { return ch[a].Start < ch[b].Start })
		covered, cur := int64(0), s.Start
		for _, c := range ch {
			lo, hi := max(c.Start, cur), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		out[i] = s.End - s.Start - covered
	}
	return out
}

// layerTimes sums the self time and call count of every span name.
type layerTime struct {
	calls int
	self  int64 // nanoseconds
}

func layerTimes(spans []span) map[string]layerTime {
	self := selfTimes(spans)
	out := make(map[string]layerTime)
	for i, s := range spans {
		lt := out[s.Name]
		lt.calls++
		lt.self += self[i]
		out[s.Name] = lt
	}
	return out
}

// meanSelf is a layer's mean self time per call in the given unit (0
// when the layer was never called).
func (lt layerTime) meanSelf(unit time.Duration) float64 {
	if lt.calls == 0 {
		return 0
	}
	return float64(lt.self) / float64(lt.calls) / float64(unit)
}
