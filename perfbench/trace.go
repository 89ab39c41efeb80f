package main

import (
	"sort"
	"time"
)

// Spans are recorded from the benchmark's own files, around its calls into
// each layer's public functions; nothing inside the program is
// instrumented. They stay in memory until the traced run ends.

// span is one timed call. parent indexes the enclosing span in the
// tracer, or is -1 for a root.
type span struct {
	name       string
	parent     int
	start, end time.Duration // since the tracer started
}

// tracer records spans. A nil *tracer records nothing, so untraced runs
// pass nil and pay one nil check per call site.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent (-1 for a root) and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, parent: parent, start: time.Since(t.t0), end: -1})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].end = time.Since(t.t0)
}

// spanStat aggregates the closed spans of one name.
type spanStat struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

// stats aggregates closed spans by name. A span's self time is its
// duration minus the part of it that its children cover; overlapping
// children are counted once.
func (t *tracer) stats() []spanStat {
	if t == nil {
		return nil
	}
	children := make(map[int][]int)
	for i, s := range t.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	byName := make(map[string]*spanStat)
	var order []string
	for i, s := range t.spans {
		if s.end < 0 {
			continue
		}
		var kids []span
		for _, c := range children[i] {
			kids = append(kids, t.spans[c])
		}
		st := byName[s.name]
		if st == nil {
			st = &spanStat{Name: s.name}
			byName[s.name] = st
			order = append(order, s.name)
		}
		st.Count++
		st.TotalMs += ms(s.end - s.start)
		st.SelfMs += ms(selfTime(s, kids))
	}
	out := make([]spanStat, 0, len(order))
	for _, name := range order {
		out = append(out, *byName[name])
	}
	return out
}

// selfTime is s's duration minus the union of its children's intervals,
// clipped to s. Children still open are ignored.
func selfTime(s span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
	covered := time.Duration(0)
	curStart, curEnd := time.Duration(-1), time.Duration(-1)
	for _, k := range kids {
		if k.end < 0 {
			continue
		}
		a, b := max(k.start, s.start), min(k.end, s.end)
		if b <= a {
			continue
		}
		if a > curEnd {
			covered += curEnd - curStart
			curStart, curEnd = a, b
		} else if b > curEnd {
			curEnd = b
		}
	}
	covered += curEnd - curStart
	return s.end - s.start - covered
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
