package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer. Spans of one operation share Op;
// Parent is the span that caused this one (0 for an operation's root).
type span struct {
	Op     uint64 `json:"op"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	// Start and End are nanoseconds since the tracer was created.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer is a
// valid, disabled tracer: every method is a no-op, so untraced runs pay
// one nil check per span.
type tracer struct {
	base  time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// active is an open span; end closes it.
type active struct {
	t     *tracer
	s     span
	start time.Time
}

// newOp allocates an operation id for a root span.
func (t *tracer) newOp() uint64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// begin opens a span named name under parent (nil for a root span of
// operation op).
func (t *tracer) begin(op uint64, parent *active, name string) *active {
	if t == nil {
		return nil
	}
	a := &active{t: t, start: time.Now()}
	a.s = span{Op: op, ID: t.ids.Add(1), Name: name}
	if parent != nil {
		a.s.Op, a.s.Parent = parent.s.Op, parent.s.ID
	}
	a.s.Start = a.start.Sub(t.base).Nanoseconds()
	return a
}

// end closes the span and returns its duration (0 when disabled).
func (a *active) end() time.Duration {
	if a == nil {
		return 0
	}
	now := time.Now()
	a.s.End = now.Sub(a.t.base).Nanoseconds()
	a.t.mu.Lock()
	a.t.spans = append(a.t.spans, a.s)
	a.t.mu.Unlock()
	return now.Sub(a.start)
}

// timed runs fn inside a span and returns its duration. With a disabled
// tracer it still times fn, so probes read the same either way.
func (t *tracer) timed(op uint64, parent *active, name string, fn func()) time.Duration {
	if t == nil {
		start := time.Now()
		fn()
		return time.Since(start)
	}
	a := t.begin(op, parent, name)
	fn()
	return a.end()
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// spanStats is the per-name reduction of a trace: how many spans, and
// the median total and self time. Self time is a span's duration minus
// the part of its interval its children cover.
type spanStats struct {
	Name         string
	Count        int
	SelfUS       float64
	MedianUS     float64
	MedianSelfUS float64
}

func selfTimes(spans []span) map[uint64]time.Duration {
	children := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[uint64]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered := int64(0)
		cur0, cur1 := int64(-1), int64(-1)
		for _, k := range kids {
			a, b := max(k.Start, s.Start), min(k.End, s.End)
			if b <= a {
				continue
			}
			if a > cur1 {
				covered += cur1 - cur0
				cur0, cur1 = a, b
			} else if b > cur1 {
				cur1 = b
			}
		}
		covered += cur1 - cur0
		self[s.ID] = time.Duration(s.End - s.Start - covered)
	}
	return self
}

func summarizeSpans(spans []span) []spanStats {
	self := selfTimes(spans)
	type acc struct{ tot, slf []float64 }
	by := map[string]*acc{}
	for _, s := range spans {
		a := by[s.Name]
		if a == nil {
			a = &acc{}
			by[s.Name] = a
		}
		a.tot = append(a.tot, float64(s.dur())/1e3)
		a.slf = append(a.slf, float64(self[s.ID])/1e3)
	}
	out := make([]spanStats, 0, len(by))
	for name, a := range by {
		st := spanStats{Name: name, Count: len(a.tot), MedianUS: medianOf(a.tot), MedianSelfUS: medianOf(a.slf)}
		for _, v := range a.slf {
			st.SelfUS += v
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfUS > out[j].SelfUS })
	return out
}

// medianSpanUS is the median duration of the spans named name, in µs,
// and how many there were.
func medianSpanUS(spans []span, name string) (float64, int) {
	var v []float64
	for _, s := range spans {
		if s.Name == name {
			v = append(v, float64(s.dur())/1e3)
		}
	}
	return medianOf(v), len(v)
}

// writeSpans writes one JSON object per span to path.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func printSpanTable(w io.Writer, stats []spanStats) {
	fmt.Fprintf(w, "%-28s %8s %12s %12s %12s\n", "span", "count", "median µs", "self med µs", "self total ms")
	for _, s := range stats {
		fmt.Fprintf(w, "%-28s %8d %12.1f %12.1f %12.1f\n", s.Name, s.Count, s.MedianUS, s.MedianSelfUS, s.SelfUS/1e3)
	}
}
