package server

import (
	"bytes"
	"io"
	"net/http"
	"testing"

	"ube/internal/schemaio"
)

// getTrace fetches a session's trace endpoint and returns the response
// plus the raw body.
func getTrace(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

func TestTraceEndpoint(t *testing.T) {
	u := testUniverse(t, 30)
	_, ts := newTestServer(t, Config{})
	id := createSession(t, ts.URL, u, testProblemDoc())

	// Before any solve: nothing retained.
	if resp, _ := getTrace(t, ts.URL+"/v1/sessions/"+id+"/trace"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("trace before solve: %d, want 404", resp.StatusCode)
	}

	for i := 0; i < 2; i++ {
		if resp, body := postJSON(t, ts.URL+"/v1/sessions/"+id+"/solve", solveRequest{}); resp.StatusCode != http.StatusOK {
			t.Fatalf("solve %d: %d %s", i, resp.StatusCode, body)
		}
	}

	// Latest trace: a valid JSONL stream with the solve root span and
	// the second iteration's label.
	resp, body := getTrace(t, ts.URL+"/v1/sessions/"+id+"/trace")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace: %d %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("trace content type %q", ct)
	}
	tr, err := schemaio.DecodeTrace(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("trace body does not decode: %v", err)
	}
	if len(tr.Spans) == 0 || tr.Spans[0].Name != "solve" {
		t.Fatalf("trace has no solve root span: %+v", tr.Spans)
	}
	if want := id + " iter 1"; tr.Label != want {
		t.Errorf("trace label %q, want %q", tr.Label, want)
	}
	if totals := tr.Totals(); totals.Map()["search.evals"] == 0 {
		t.Error("trace counted no evaluations")
	}

	// ?iter selects a retained iteration; out-of-ring iterations 404,
	// malformed ones 400.
	resp, body = getTrace(t, ts.URL+"/v1/sessions/"+id+"/trace?iter=0")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace iter=0: %d %s", resp.StatusCode, body)
	}
	if tr, err = schemaio.DecodeTrace(bytes.NewReader(body)); err != nil || tr.Label != id+" iter 0" {
		t.Errorf("trace iter=0 label %q err %v", tr.Label, err)
	}
	if resp, _ = getTrace(t, ts.URL+"/v1/sessions/"+id+"/trace?iter=7"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("trace iter=7: %d, want 404", resp.StatusCode)
	}
	if resp, _ = getTrace(t, ts.URL+"/v1/sessions/"+id+"/trace?iter=x"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("trace iter=x: %d, want 400", resp.StatusCode)
	}
	if resp, _ = getTrace(t, ts.URL+"/v1/sessions/nope/trace"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("trace of missing session: %d, want 404", resp.StatusCode)
	}

	// Captured traces show up in /metrics.
	var m metricsDoc
	if resp := getJSON(t, ts.URL+"/metrics", &m); resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	if m.TracesCaptured != 2 {
		t.Errorf("tracesCaptured = %d, want 2", m.TracesCaptured)
	}
}

// TestTraceRingEviction solves past the ring size and checks only the
// last traceRingSize iterations are retained.
func TestTraceRingEviction(t *testing.T) {
	u := testUniverse(t, 20)
	_, ts := newTestServer(t, Config{})
	p := testProblemDoc()
	id := createSession(t, ts.URL, u, p)

	total := traceRingSize + 3
	for i := 0; i < total; i++ {
		if resp, body := postJSON(t, ts.URL+"/v1/sessions/"+id+"/solve", solveRequest{}); resp.StatusCode != http.StatusOK {
			t.Fatalf("solve %d: %d %s", i, resp.StatusCode, body)
		}
	}
	// The oldest iterations aged out; the newest are retained.
	if resp, _ := getTrace(t, ts.URL+"/v1/sessions/"+id+"/trace?iter=0"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("evicted iteration still served: %d", resp.StatusCode)
	}
	for k := total - traceRingSize; k < total; k++ {
		url := ts.URL + "/v1/sessions/" + id + "/trace?iter=" + itoa(k)
		if resp, body := getTrace(t, url); resp.StatusCode != http.StatusOK {
			t.Errorf("retained iteration %d: %d %s", k, resp.StatusCode, body)
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

// TestTraceSampling pins the sampling policy arithmetic: shallow queues
// trace every solve; deep queues thin to every Nth.
func TestTraceSampling(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 8})
	defer func() {
		if err := srv.Shutdown(t.Context()); err != nil {
			t.Error(err)
		}
	}()
	// Shallow queue: always trace.
	if !srv.shouldTrace() {
		t.Error("shallow queue not traced")
	}
	// Deep queue: every traceSampleEvery-th tick.
	srv.metrics.queueDepth.Store(5)
	traced := 0
	for i := 0; i < 16; i++ {
		if srv.shouldTrace() {
			traced++
		}
	}
	if traced != 2 {
		t.Errorf("deep queue traced %d of 16, want 2", traced)
	}
}
