package main

import (
	"encoding/json"
	"os"
	"slices"
	"sort"
	"sync"
	"time"
)

// tracer keeps the traced run's spans in memory until the run ends. Spans
// wrap calls the benchmark makes into each layer; spans inside the program
// under test are out of scope. A nil *tracer records nothing, which is how
// the untraced metric run keeps its hot loops free of tracing work.
type tracer struct {
	mu     sync.Mutex
	base   time.Time
	traces []string
	spans  []span
}

// span is one timed call. Trace groups the spans of one VM stream or one
// cloudsim run; Parent is the index of the enclosing span, -1 at a root.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Trace  int32  `json:"trace"`
	Name   string `json:"name"`
	Tag    string `json:"tag,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// trace registers a trace (a VM stream, a cloudsim run) and returns its id.
func (t *tracer) trace(name string) int32 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.traces = append(t.traces, name)
	return int32(len(t.traces) - 1)
}

// begin opens a span that encloses later ones and returns its id.
func (t *tracer) begin(trace, parent int32, name, tag string) int32 {
	if t == nil {
		return -1
	}
	now := time.Since(t.base).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: trace, Name: name, Tag: tag, Start: now, End: now})
	return id
}

// end closes a span opened by begin.
func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.base).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// record adds a completed span timed by the caller.
func (t *tracer) record(trace, parent int32, name, tag string, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{Parent: parent, Trace: trace, Name: name, Tag: tag,
		Start: start.Sub(t.base).Nanoseconds(), End: end.Sub(t.base).Nanoseconds()}
	t.mu.Lock()
	s.ID = int32(len(t.spans))
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// spanTotal is the per-name roll-up written next to the spans: how many
// there were, their summed duration, and their summed self time (duration
// minus the part of it their child spans cover).
type spanTotal struct {
	Name    string `json:"name"`
	Count   int    `json:"count"`
	TotalNS int64  `json:"total_ns"`
	SelfNS  int64  `json:"self_ns"`
}

func (t *tracer) totals() []spanTotal {
	children := make(map[int32][]span)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := make(map[string]*spanTotal)
	for _, s := range t.spans {
		st := byName[s.Name]
		if st == nil {
			st = &spanTotal{Name: s.Name}
			byName[s.Name] = st
		}
		st.Count++
		st.TotalNS += s.End - s.Start
		st.SelfNS += s.End - s.Start - covered(s, children[s.ID])
	}
	out := make([]spanTotal, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	kids = slices.Clone(kids)
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	lo, hi := parent.Start, parent.Start
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if s > hi {
			total += hi - lo
			lo, hi = s, e
		} else if e > hi {
			hi = e
		}
	}
	return total + hi - lo
}

// write saves the spans and their roll-up as one JSON document.
func (t *tracer) write(path, workload string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	doc := struct {
		Workload string      `json:"workload"`
		Traces   []string    `json:"traces"`
		Totals   []spanTotal `json:"totals"`
		Spans    []span      `json:"spans"`
	}{workload, t.traces, t.totals(), t.spans}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
