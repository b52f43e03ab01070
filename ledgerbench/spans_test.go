package main

import (
	"reflect"
	"testing"

	"ube/internal/trace"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "op", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 40},
		{ID: 2, Parent: 0, Name: "b", Start: 30, End: 50},  // overlaps a: union 10..50
		{ID: 3, Parent: 0, Name: "c", Start: 90, End: 120}, // clipped to the parent: 90..100
		{ID: 4, Parent: 1, Name: "d", Start: 15, End: 20},
		{ID: 5, Parent: -1, Name: "open", Start: 5, End: -1},
	}
	got := selfTimes(spans)
	want := []int64{100 - 40 - 10, 30 - 5, 20, 30, 5, 0}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
}

func TestGraftKeepsTreeAndShiftsTime(t *testing.T) {
	rec := newRecorder()
	root := rec.add(7, -1, "op.solve", 1000, 5000)
	tr := &trace.Trace{Spans: []trace.Span{
		{ID: 0, Parent: -1, Name: "solve", Start: 0, Dur: 300},
		{ID: 1, Parent: 0, Name: "setup", Start: 10, Dur: 50},
		{ID: 2, Parent: 0, Name: "search", Start: 60, Dur: 200},
	}}
	rec.graft(7, root, 2000, tr)
	spans := rec.snapshot()
	if len(spans) != 4 {
		t.Fatalf("%d spans, want 4", len(spans))
	}
	want := []span{
		{ID: 1, Parent: root, Op: 7, Name: "engine.solve", Start: 2000, End: 2300},
		{ID: 2, Parent: 1, Op: 7, Name: "engine.setup", Start: 2010, End: 2060},
		{ID: 3, Parent: 1, Op: 7, Name: "engine.search", Start: 2060, End: 2260},
	}
	if !reflect.DeepEqual(spans[1:], want) {
		t.Fatalf("grafted %+v, want %+v", spans[1:], want)
	}
	rows := aggregate(spans, 1)
	byName := map[string]layerRow{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	if r := byName["op.solve"]; r.SelfMsPerOp != float64(4000-300)/1e6 || r.CallsPerOp != 1 {
		t.Fatalf("op.solve row %+v", r)
	}
	if r := byName["engine.solve"]; r.SelfMsPerOp != float64(300-250)/1e6 {
		t.Fatalf("engine.solve row %+v", r)
	}
}

func TestNilRecorderRecordsNothing(t *testing.T) {
	var rec *recorder
	id := rec.begin(1, -1, "x")
	rec.end(id)
	rec.graft(1, id, 0, &trace.Trace{Spans: []trace.Span{{Name: "solve"}}})
	if id != -1 || rec.snapshot() != nil {
		t.Fatal("a nil recorder must be a no-op")
	}
}
