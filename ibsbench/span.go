package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// Span is one timed call the benchmark made into a layer. Parent is the ID
// of the enclosing span (0 for a root); spans of one service request share
// Req.
type Span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent,omitempty"`
	Req    int           `json:"req,omitempty"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// Dur is the span's wall duration.
func (s Span) Dur() time.Duration { return s.End - s.Start }

// Tracer keeps spans in memory until the run ends. A disabled tracer
// records nothing and costs one branch per call. It is used from one
// goroutine at a time.
type Tracer struct {
	on    bool
	t0    time.Time
	spans []Span
}

// NewTracer returns a tracer that records when on is set.
func NewTracer(on bool) *Tracer {
	return &Tracer{on: on, t0: time.Now()}
}

// Begin opens a span and returns its ID (0 when tracing is off).
func (t *Tracer) Begin(name string, parent, req int) int {
	if !t.on {
		return 0
	}
	t.spans = append(t.spans, Span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, Start: time.Since(t.t0)})
	return len(t.spans)
}

// End closes span id.
func (t *Tracer) End(id int) {
	if id == 0 {
		return
	}
	t.spans[id-1].End = time.Since(t.t0)
}

// Spans returns the recorded spans in the order they were opened.
func (t *Tracer) Spans() []Span { return t.spans }

// WriteTo writes the spans as JSON lines.
func (t *Tracer) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return 0, err
		}
	}
	return int64(len(t.spans)), bw.Flush()
}

// selfTimes returns each span name's total self time: a span's duration
// minus the part of its interval covered by its children.
func selfTimes(spans []Span) map[string]time.Duration {
	children := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[string]time.Duration)
	for _, s := range spans {
		self[s.Name] += s.Dur() - covered(s, children[s.ID])
	}
	return self
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent Span, kids []Span) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a <= cur.b:
			cur.b = max(cur.b, v.b)
		default:
			total += cur.b - cur.a
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b - cur.a
	}
	return total
}

// Share is one row of an Amdahl table: a layer's part of the total.
type Share struct {
	Layer string
	Time  time.Duration
	Frac  float64
}

// amdahl turns per-layer times into shares of their sum, largest first.
// The shares sum to 1.
func amdahl(parts map[string]time.Duration) []Share {
	var total time.Duration
	for _, d := range parts {
		total += d
	}
	out := make([]Share, 0, len(parts))
	for name, d := range parts {
		f := 0.0
		if total != 0 {
			f = float64(d) / float64(total)
		}
		out = append(out, Share{Layer: name, Time: d, Frac: f})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Time != out[j].Time {
			return out[i].Time > out[j].Time
		}
		return out[i].Layer < out[j].Layer
	})
	return out
}

// printAmdahl prints an Amdahl table under title.
func printAmdahl(w io.Writer, title string, rows []Share) {
	fmt.Fprintf(w, "amdahl %s:\n", title)
	for _, r := range rows {
		fmt.Fprintf(w, "  %-34s %10.3f ms  %6.2f%%\n", r.Layer, float64(r.Time)/1e6, 100*r.Frac)
	}
}
