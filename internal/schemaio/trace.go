package schemaio

// JSONL encoding for solve traces (internal/trace): one header document
// on the first line, then one document per span. The format is
// append-friendly (a ube-bench run can stream spans to disk), diffable
// (counter maps marshal with sorted keys, so canonical traces are
// byte-comparable as files), and strictly validated on decode — the
// trace endpoint and ube-trace both read files across a trust boundary.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"ube/internal/trace"
)

// TraceDocName identifies a trace stream's header document.
const TraceDocName = "ube.trace"

// TraceVersion is the current trace stream version.
const TraceVersion = 1

// traceSpanLimit caps the span count a decoded trace may declare; the
// tracer's own DefaultMaxSpans is 16384, so anything near this limit is
// a hostile or corrupt file, rejected before the slice allocates.
const traceSpanLimit = 1 << 20

// traceLineLimit caps one JSONL line: a span document carries a short
// name and at most NumCounters counter entries.
const traceLineLimit = 1 << 16

// traceNameLimit caps a span name; the tracer only ever uses short
// constant strings.
const traceNameLimit = 256

// TraceHeaderDoc is the first line of a trace stream.
type TraceHeaderDoc struct {
	Doc     string `json:"doc"`
	Version int    `json:"version"`
	Label   string `json:"label,omitempty"`
	Spans   int    `json:"spans"`
	Dropped int64  `json:"dropped,omitempty"`
}

// SpanDoc is one span line. Counts carries only nonzero counters, keyed
// by their stable wire names.
type SpanDoc struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	//ube:operational span timings are operational; canonical traces carry them zeroed
	Start int64 `json:"startNs"`
	//ube:operational span timings are operational; canonical traces carry them zeroed
	Dur    int64            `json:"durNs"`
	Counts map[string]int64 `json:"counts,omitempty"`
}

// EncodeTrace writes tr as JSONL: header line, then one line per span.
func EncodeTrace(w io.Writer, tr *trace.Trace) error {
	if tr == nil {
		return fmt.Errorf("schemaio: nil trace")
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw) // Encode appends the newline separator
	if err := enc.Encode(TraceHeaderDoc{
		Doc:     TraceDocName,
		Version: TraceVersion,
		Label:   tr.Label,
		Spans:   len(tr.Spans),
		Dropped: tr.Dropped,
	}); err != nil {
		return err
	}
	for i := range tr.Spans {
		sp := &tr.Spans[i]
		if err := enc.Encode(SpanDoc{
			ID:     sp.ID,
			Parent: sp.Parent,
			Name:   sp.Name,
			Start:  sp.Start,
			Dur:    sp.Dur,
			Counts: sp.Counts.Map(),
		}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// EncodeTraceBytes renders tr to a byte slice — the form the trace
// determinism tests compare and the server response body.
func EncodeTraceBytes(tr *trace.Trace) ([]byte, error) {
	var buf bytes.Buffer
	if err := EncodeTrace(&buf, tr); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeTrace reads a JSONL trace stream back, validating structure at
// the trust boundary: the header must come first and declare the exact
// span count; span IDs must equal their line order (which rejects
// duplicates); parents must reference an earlier span or -1 (which
// rejects cyclic and forward references); timings and counters must be
// non-negative and counters must resolve to known names. Truncated
// streams and trailing garbage are errors, never panics.
func DecodeTrace(r io.Reader) (*trace.Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 4096), traceLineLimit)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("schemaio: trace header: %w", err)
		}
		return nil, fmt.Errorf("schemaio: trace stream is empty")
	}
	var hdr TraceHeaderDoc
	if err := DecodeStrict(sc.Bytes(), &hdr); err != nil {
		return nil, fmt.Errorf("schemaio: trace header: %w", err)
	}
	if hdr.Doc != TraceDocName {
		return nil, fmt.Errorf("schemaio: trace header doc %q, want %q", hdr.Doc, TraceDocName)
	}
	if hdr.Version != TraceVersion {
		return nil, fmt.Errorf("schemaio: trace version %d unsupported (want %d)", hdr.Version, TraceVersion)
	}
	if hdr.Spans < 0 || hdr.Spans > traceSpanLimit {
		return nil, fmt.Errorf("schemaio: trace declares %d spans, limit %d", hdr.Spans, traceSpanLimit)
	}
	if hdr.Dropped < 0 {
		return nil, fmt.Errorf("schemaio: trace declares %d dropped spans", hdr.Dropped)
	}
	tr := &trace.Trace{Label: hdr.Label, Dropped: hdr.Dropped, Spans: make([]trace.Span, 0, hdr.Spans)}
	for i := 0; i < hdr.Spans; i++ {
		if !sc.Scan() {
			if err := sc.Err(); err != nil {
				return nil, fmt.Errorf("schemaio: trace span %d: %w", i, err)
			}
			return nil, fmt.Errorf("schemaio: trace truncated at span %d of %d", i, hdr.Spans)
		}
		var d SpanDoc
		if err := DecodeStrict(sc.Bytes(), &d); err != nil {
			return nil, fmt.Errorf("schemaio: trace span %d: %w", i, err)
		}
		sp, err := d.decode(int32(i))
		if err != nil {
			return nil, fmt.Errorf("schemaio: trace span %d: %w", i, err)
		}
		tr.Spans = append(tr.Spans, sp)
	}
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) != 0 {
			return nil, fmt.Errorf("schemaio: trailing data after %d declared spans", hdr.Spans)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("schemaio: trace stream: %w", err)
	}
	return tr, nil
}

// decode validates one span line against its position in the stream.
func (d *SpanDoc) decode(line int32) (trace.Span, error) {
	var sp trace.Span
	if d.ID != line {
		return sp, fmt.Errorf("span id %d at stream position %d (ids must be sequential and unique)", d.ID, line)
	}
	if d.Parent != -1 && (d.Parent < 0 || d.Parent >= d.ID) {
		return sp, fmt.Errorf("span %d parent %d must be -1 or an earlier span (cyclic or forward reference)", d.ID, d.Parent)
	}
	if d.Name == "" || len(d.Name) > traceNameLimit {
		return sp, fmt.Errorf("span %d name length %d outside [1,%d]", d.ID, len(d.Name), traceNameLimit)
	}
	if d.Start < 0 || d.Dur < 0 {
		return sp, fmt.Errorf("span %d has negative timing (start %d, dur %d)", d.ID, d.Start, d.Dur)
	}
	sp = trace.Span{ID: d.ID, Parent: d.Parent, Name: d.Name, Start: d.Start, Dur: d.Dur}
	for name, v := range d.Counts {
		c, ok := trace.CounterByName(name)
		if !ok {
			return sp, fmt.Errorf("span %d has unknown counter %q", d.ID, name)
		}
		if v < 0 {
			return sp, fmt.Errorf("span %d counter %q is negative (%d)", d.ID, name, v)
		}
		sp.Counts[c] = v
	}
	return sp, nil
}
