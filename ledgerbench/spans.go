package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"ube/internal/trace"
)

// span is one interval the traced run recorded: a call the benchmark made
// into a layer, or a span the engine's own tracer recorded and the
// benchmark grafted under the call that caused it. Every span of one
// operation carries that operation's ID; Parent is -1 for the operation's
// root span.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
}

// recorder keeps a run's spans in memory; they are written out once the
// run ends. A nil recorder records nothing, so untraced runs pay only a
// nil check per call site. It is safe for concurrent use: the
// serve-sessions clients and shard handlers record into one recorder.
type recorder struct {
	//ube:operational the span clock's origin; spans never reach the program under test
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// now is the recorder's clock: nanoseconds since it was created.
func (r *recorder) now() int64 { return int64(sinceMs(r.t0) * 1e6) }

// begin opens a span under parent (-1 for an operation root) and returns
// its ID; -1 when the recorder is nil.
func (r *recorder) begin(op int64, parent int32, name string) int32 {
	if r == nil {
		return -1
	}
	t := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int32(len(r.spans))
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: t, End: -1})
	return id
}

// end closes a span opened by begin.
func (r *recorder) end(id int32) {
	if r == nil || id < 0 {
		return
	}
	t := r.now()
	r.mu.Lock()
	r.spans[id].End = t
	r.mu.Unlock()
}

// add records an already-closed span with explicit bounds (a handler
// interval measured by the shard middleware, say).
func (r *recorder) add(op int64, parent int32, name string, start, end int64) int32 {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int32(len(r.spans))
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: start, End: end})
	return id
}

// interval returns a recorded span's bounds.
func (r *recorder) interval(id int32) (start, end int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans[id].Start, r.spans[id].End
}

// graft copies an engine trace under parent, shifting its span offsets
// (relative to the trace's first span) by base on the recorder's clock.
// Engine span names get an "engine." prefix so the per-layer table
// groups them under their module.
func (r *recorder) graft(op int64, parent int32, base int64, tr *trace.Trace) {
	if r == nil || tr == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	ids := make(map[int32]int32, len(tr.Spans))
	for _, sp := range tr.Spans {
		p := parent
		if sp.Parent >= 0 {
			if mapped, ok := ids[sp.Parent]; ok {
				p = mapped
			}
		}
		id := int32(len(r.spans))
		ids[sp.ID] = id
		start := base + sp.Start
		r.spans = append(r.spans, span{ID: id, Parent: p, Op: op, Name: "engine." + sp.Name, Start: start, End: start + sp.Dur})
	}
}

// snapshot returns a copy of the recorded spans.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its direct children cover. Children are clipped to
// the parent's interval and overlapping children count once. Spans left
// open (End < Start) get 0.
func selfTimes(spans []span) []int64 {
	children := make(map[int32][]int32)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		if s.End < s.Start {
			continue
		}
		type iv struct{ a, b int64 }
		var ivs []iv
		for _, c := range children[s.ID] {
			cs := spans[c]
			a, b := max(cs.Start, s.Start), min(cs.End, s.End)
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered, curA, curB int64
		open := false
		for _, v := range ivs {
			switch {
			case !open:
				curA, curB, open = v.a, v.b, true
			case v.a <= curB:
				curB = max(curB, v.b)
			default:
				covered += curB - curA
				curA, curB = v.a, v.b
			}
		}
		if open {
			covered += curB - curA
		}
		self[i] = (s.End - s.Start) - covered
	}
	return self
}

// layerRow is one span name's aggregate over a run.
type layerRow struct {
	Name        string
	Calls       int
	SelfMsPerOp float64
	CallsPerOp  float64
}

// aggregate sums self time and call counts per span name and divides by
// the number of operations.
func aggregate(spans []span, ops int) []layerRow {
	self := selfTimes(spans)
	byName := map[string]*layerRow{}
	var names []string
	for i, s := range spans {
		row, ok := byName[s.Name]
		if !ok {
			row = &layerRow{Name: s.Name}
			byName[s.Name] = row
			names = append(names, s.Name)
		}
		row.Calls++
		row.SelfMsPerOp += float64(self[i]) / 1e6
	}
	sort.Strings(names)
	out := make([]layerRow, 0, len(names))
	for _, n := range names {
		row := byName[n]
		if ops > 0 {
			row.SelfMsPerOp /= float64(ops)
			row.CallsPerOp = float64(row.Calls) / float64(ops)
		}
		out = append(out, *row)
	}
	return out
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating span file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing span file: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing span file: %w", err)
	}
	return f.Close()
}
