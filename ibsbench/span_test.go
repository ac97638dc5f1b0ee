package main

import (
	"math"
	"testing"
	"time"
)

func span(id, parent int, name string, start, end time.Duration) Span {
	return Span{ID: id, Parent: parent, Name: name, Start: start, End: end}
}

func TestSelfTimeNestedChildren(t *testing.T) {
	spans := []Span{
		span(1, 0, "root", 0, 100),
		span(2, 1, "a", 10, 30),  // overlaps b
		span(3, 1, "b", 20, 50),  // union of a and b covers [10,50]
		span(4, 1, "c", 90, 120), // clipped to the parent: covers [90,100]
		span(5, 2, "a.inner", 15, 20),
		span(6, 0, "root", 200, 210), // a second root of the same name
	}
	self := selfTimes(spans)
	want := map[string]time.Duration{"root": 100 - 50 + 10, "a": 20 - 5, "b": 30, "c": 30, "a.inner": 5}
	for name, w := range want {
		if self[name] != w {
			t.Errorf("self[%s] = %v, want %v", name, self[name], w)
		}
	}
	if len(self) != len(want) {
		t.Errorf("self has %d names, want %d", len(self), len(want))
	}
}

func TestAmdahlSharesSumToOne(t *testing.T) {
	rows := amdahl(map[string]time.Duration{"x": 3, "y": 1, "z": 6})
	sum := 0.0
	for _, r := range rows {
		sum += r.Frac
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("shares sum to %v", sum)
	}
	if rows[0].Layer != "z" || rows[0].Frac != 0.6 {
		t.Errorf("largest share first: got %+v", rows[0])
	}
}

func TestTracerOffRecordsNothing(t *testing.T) {
	tr := NewTracer(false)
	tr.End(tr.Begin("x", 0, 0))
	if len(tr.Spans()) != 0 {
		t.Errorf("disabled tracer recorded %d spans", len(tr.Spans()))
	}
	on := NewTracer(true)
	root := on.Begin("root", 0, 7)
	on.End(on.Begin("child", root, 7))
	on.End(root)
	got := on.Spans()
	if len(got) != 2 || got[1].Parent != root || got[1].Req != 7 || got[0].End < got[1].End {
		t.Errorf("spans = %+v", got)
	}
}
