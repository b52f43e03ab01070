package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"ube/internal/engine"
	"ube/internal/model"
	"ube/internal/schemaio"
	"ube/internal/synth"
)

// testUniverse generates a deterministic synthetic universe shared by the
// tests; every caller with the same n gets the same universe.
func testUniverse(t *testing.T, n int) *model.Universe {
	t.Helper()
	u, _, err := synth.Generate(synth.QuickConfig(n))
	if err != nil {
		t.Fatal(err)
	}
	return u
}

// testProblemDoc is the small, fast starting problem the tests use.
func testProblemDoc() *schemaio.ProblemDoc {
	p := engine.DefaultProblem()
	p.MaxSources = 5
	p.MaxEvals = 400
	doc, err := schemaio.EncodeProblem(&p)
	if err != nil {
		panic(err)
	}
	return doc
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return srv, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp
}

// createSession posts a session for universe u and returns its ID.
func createSession(t *testing.T, baseURL string, u *model.Universe, prob *schemaio.ProblemDoc) string {
	t.Helper()
	resp, body := postJSON(t, baseURL+"/v1/sessions", createSessionRequest{Universe: u, Problem: prob})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create session: %d %s", resp.StatusCode, body)
	}
	var info sessionInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.ID == "" {
		t.Fatal("created session has no ID")
	}
	return info.ID
}

func TestHealthzAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var health map[string]string
	if resp := getJSON(t, ts.URL+"/healthz", &health); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	if health["status"] != "ok" {
		t.Errorf("healthz status %q", health["status"])
	}
	var m metricsDoc
	if resp := getJSON(t, ts.URL+"/metrics", &m); resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	if len(m.SolveLatency.Buckets) == 0 || m.SolveLatency.Buckets[len(m.SolveLatency.Buckets)-1].LE != "+Inf" {
		t.Errorf("latency histogram malformed: %+v", m.SolveLatency)
	}
}

// TestSessionLifecycle walks the whole API surface: create, solve with
// edits, history, diff, per-iteration fetch, delete.
func TestSessionLifecycle(t *testing.T) {
	u := testUniverse(t, 30)
	_, ts := newTestServer(t, Config{})
	id := createSession(t, ts.URL, u, testProblemDoc())

	// Solve once with no edits.
	resp, body := postJSON(t, ts.URL+"/v1/sessions/"+id+"/solve", solveRequest{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve 1: %d %s", resp.StatusCode, body)
	}
	var sr solveResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Iteration != 0 || sr.Solution == nil || sr.Rendered == nil {
		t.Fatalf("solve 1 response malformed: %+v", sr)
	}

	// Solve again, tightening the problem: pin the first chosen source
	// and shrink m.
	pin := sr.Solution.Sources[0]
	m := 4
	resp, body = postJSON(t, ts.URL+"/v1/sessions/"+id+"/solve", solveRequest{
		PinSources: []int{pin},
		MaxSources: &m,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve 2: %d %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Iteration != 1 {
		t.Errorf("second solve is iteration %d; want 1", sr.Iteration)
	}
	if sr.Diff == nil {
		t.Error("second solve has no diff")
	}
	found := false
	for _, src := range sr.Solution.Sources {
		if src == pin {
			found = true
		}
	}
	if !found {
		t.Errorf("pinned source %d missing from %v", pin, sr.Solution.Sources)
	}

	// The session info reflects the edits.
	var info sessionInfo
	getJSON(t, ts.URL+"/v1/sessions/"+id, &info)
	if info.Iterations != 2 || info.Problem.MaxSources != 4 {
		t.Errorf("session info %+v; want 2 iterations, maxSources 4", info)
	}

	// History has both iterations and they decode.
	var hist struct {
		Iterations []schemaio.IterationDoc `json:"iterations"`
	}
	getJSON(t, ts.URL+"/v1/sessions/"+id+"/history", &hist)
	if len(hist.Iterations) != 2 {
		t.Fatalf("history has %d iterations; want 2", len(hist.Iterations))
	}
	if _, err := hist.Iterations[1].Decode(); err != nil {
		t.Errorf("history iteration does not decode: %v", err)
	}
	var one schemaio.IterationDoc
	if resp := getJSON(t, ts.URL+"/v1/sessions/"+id+"/history/1", &one); resp.StatusCode != http.StatusOK {
		t.Fatalf("history/1: %d", resp.StatusCode)
	}
	if !reflect.DeepEqual(one, hist.Iterations[1]) {
		t.Error("history/1 differs from history[1]")
	}

	// Diff endpoint agrees with the solve response's diff.
	var diffResp struct {
		From int          `json:"from"`
		To   int          `json:"to"`
		Diff *engine.Diff `json:"diff"`
	}
	getJSON(t, ts.URL+"/v1/sessions/"+id+"/diff", &diffResp)
	if diffResp.From != 0 || diffResp.To != 1 {
		t.Errorf("default diff range (%d,%d); want (0,1)", diffResp.From, diffResp.To)
	}
	if !reflect.DeepEqual(diffResp.Diff, sr.Diff) {
		t.Errorf("diff endpoint %+v != solve diff %+v", diffResp.Diff, sr.Diff)
	}

	// Delete, then everything 404s/410s.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+id, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: %d", dresp.StatusCode)
	}
	if resp := getJSON(t, ts.URL+"/v1/sessions/"+id, nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("get after delete: %d", resp.StatusCode)
	}
}

// TestSolveEditRollback verifies a rejected edit batch leaves the problem
// exactly as it was: edits are all-or-nothing.
func TestSolveEditRollback(t *testing.T) {
	u := testUniverse(t, 30)
	_, ts := newTestServer(t, Config{})
	id := createSession(t, ts.URL, u, testProblemDoc())

	var before sessionInfo
	getJSON(t, ts.URL+"/v1/sessions/"+id, &before)

	// theta edit is valid, optimizer is not: the whole batch must fail
	// and the valid part must not stick.
	theta := 0.9
	resp, body := postJSON(t, ts.URL+"/v1/sessions/"+id+"/solve", solveRequest{
		Theta:     &theta,
		Optimizer: "no-such-optimizer",
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad edit batch: %d %s", resp.StatusCode, body)
	}

	var after sessionInfo
	getJSON(t, ts.URL+"/v1/sessions/"+id, &after)
	if !reflect.DeepEqual(before.Problem, after.Problem) {
		t.Errorf("rejected edits mutated the problem:\nbefore %+v\nafter  %+v", before.Problem, after.Problem)
	}
}

// TestConcurrentSolvesSerializeDeterministically is the service-level
// determinism guarantee (satellite of the repo-wide invariant): N
// goroutines hammering one session produce exactly the history that
// posting the same requests sequentially produces — per-session solves
// serialize in admission order and nothing about server concurrency
// leaks into results.
func TestConcurrentSolvesSerializeDeterministically(t *testing.T) {
	const solves = 4
	u := testUniverse(t, 30)

	runHistory := func(concurrent bool) []schemaio.IterationDoc {
		_, ts := newTestServer(t, Config{Workers: 4, QueueDepth: 16})
		id := createSession(t, ts.URL, u, testProblemDoc())
		if concurrent {
			var wg sync.WaitGroup
			for i := 0; i < solves; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					resp, body := postJSON(t, ts.URL+"/v1/sessions/"+id+"/solve", solveRequest{})
					if resp.StatusCode != http.StatusOK {
						t.Errorf("concurrent solve: %d %s", resp.StatusCode, body)
					}
				}()
			}
			wg.Wait()
		} else {
			for i := 0; i < solves; i++ {
				resp, body := postJSON(t, ts.URL+"/v1/sessions/"+id+"/solve", solveRequest{})
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("sequential solve %d: %d %s", i, resp.StatusCode, body)
				}
			}
		}
		var hist struct {
			Iterations []schemaio.IterationDoc `json:"iterations"`
		}
		getJSON(t, ts.URL+"/v1/sessions/"+id+"/history", &hist)
		return hist.Iterations
	}

	sequential := runHistory(false)
	concurrentHist := runHistory(true)
	if len(sequential) != solves || len(concurrentHist) != solves {
		t.Fatalf("histories have %d and %d iterations; want %d", len(sequential), len(concurrentHist), solves)
	}
	// Wall-clock solve duration is operational metadata, not solver
	// output; everything else must match bit for bit.
	for i := range sequential {
		sequential[i].Solution.ElapsedNS = 0
		concurrentHist[i].Solution.ElapsedNS = 0
	}
	// The requests are identical, so admission order cannot matter here;
	// the histories must match iteration by iteration, bit for bit.
	if !reflect.DeepEqual(sequential, concurrentHist) {
		for i := range sequential {
			if !reflect.DeepEqual(sequential[i], concurrentHist[i]) {
				t.Errorf("iteration %d diverges:\nsequential %+v\nconcurrent %+v",
					i, sequential[i].Solution, concurrentHist[i].Solution)
			}
		}
	}
}

// TestQueueOverflow429 fills the admission queue and verifies overflow
// gets 429 with a Retry-After header.
func TestQueueOverflow429(t *testing.T) {
	u := testUniverse(t, 40)
	srv, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})

	doc := testProblemDoc()
	doc.MaxEvals = 200000 // slow enough to still be running when we flood
	id := createSession(t, ts.URL, u, doc)

	// Occupy the single worker.
	firstDone := make(chan struct{})
	go func() {
		defer close(firstDone)
		resp, _ := postJSON(t, ts.URL+"/v1/sessions/"+id+"/solve", solveRequest{})
		if resp.StatusCode != http.StatusOK {
			t.Errorf("occupying solve: %d", resp.StatusCode)
		}
	}()
	waitFor(t, 10*time.Second, func() bool { return srv.metrics.inFlight.Load() == 1 })

	// Fill the queue (depth 1), then overflow it.
	queuedDone := make(chan struct{})
	go func() {
		defer close(queuedDone)
		resp, _ := postJSON(t, ts.URL+"/v1/sessions/"+id+"/solve", solveRequest{})
		if resp.StatusCode != http.StatusOK {
			t.Errorf("queued solve: %d", resp.StatusCode)
		}
	}()
	waitFor(t, 10*time.Second, func() bool { return srv.metrics.queueDepth.Load() == 1 })

	resp, body := postJSON(t, ts.URL+"/v1/sessions/"+id+"/solve", solveRequest{})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow solve: %d %s; want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 carries no Retry-After")
	}
	if srv.metrics.rejections.Load() == 0 {
		t.Error("rejection not counted")
	}
	<-firstDone
	<-queuedDone
}

// TestSSEEvents subscribes to a session's event stream and checks a solve
// emits queued → start → done in order.
func TestSSEEvents(t *testing.T) {
	u := testUniverse(t, 30)
	_, ts := newTestServer(t, Config{})
	id := createSession(t, ts.URL, u, testProblemDoc())

	resp, err := http.Get(ts.URL + "/v1/sessions/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content type %q", ct)
	}

	events := make(chan string, 64)
	go func() {
		scanner := bufio.NewScanner(resp.Body)
		for scanner.Scan() {
			line := scanner.Text()
			if name, ok := strings.CutPrefix(line, "event: "); ok {
				events <- name
			}
		}
		close(events)
	}()

	if resp, body := postJSON(t, ts.URL+"/v1/sessions/"+id+"/solve", solveRequest{}); resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: %d %s", resp.StatusCode, body)
	}

	var seen []string
	deadline := time.After(15 * time.Second)
	for len(seen) == 0 || seen[len(seen)-1] != "done" {
		select {
		case ev, ok := <-events:
			if !ok {
				t.Fatalf("event stream closed early; saw %v", seen)
			}
			seen = append(seen, ev)
		case <-deadline:
			t.Fatalf("no done event; saw %v", seen)
		}
	}
	if seen[0] != "queued" {
		t.Errorf("first event %q; want queued", seen[0])
	}
	gotStart := false
	for _, ev := range seen {
		if ev == "start" {
			gotStart = true
		}
	}
	if !gotStart {
		t.Errorf("no start event in %v", seen)
	}
}

// TestTTLEviction verifies idle sessions get evicted and active ones
// survive.
func TestTTLEviction(t *testing.T) {
	u := testUniverse(t, 30)
	srv, ts := newTestServer(t, Config{SessionTTL: 100 * time.Millisecond})
	id := createSession(t, ts.URL, u, testProblemDoc())

	waitFor(t, 10*time.Second, func() bool {
		return srv.metrics.sessionsEvicted.Load() == 1
	})
	if resp := getJSON(t, ts.URL+"/v1/sessions/"+id, nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("evicted session still answers: %d", resp.StatusCode)
	}
}

// TestDrain verifies the graceful-shutdown contract: in-flight solves
// finish and are answered; new work is refused with 503.
func TestDrain(t *testing.T) {
	u := testUniverse(t, 40)
	srv := New(Config{Workers: 1, QueueDepth: 4})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	doc := testProblemDoc()
	doc.MaxEvals = 100000
	id := createSession(t, ts.URL, u, doc)

	type result struct {
		status int
		body   []byte
	}
	inflight := make(chan result, 1)
	go func() {
		resp, body := postJSON(t, ts.URL+"/v1/sessions/"+id+"/solve", solveRequest{})
		inflight <- result{resp.StatusCode, body}
	}()
	waitFor(t, 10*time.Second, func() bool { return srv.metrics.inFlight.Load() == 1 })

	srv.BeginDrain()

	// New solves and sessions are refused while draining.
	if resp, _ := postJSON(t, ts.URL+"/v1/sessions/"+id+"/solve", solveRequest{}); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("solve while draining: %d; want 503", resp.StatusCode)
	}
	if resp, _ := postJSON(t, ts.URL+"/v1/sessions", createSessionRequest{Universe: u}); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("create while draining: %d; want 503", resp.StatusCode)
	}
	if resp := getJSON(t, ts.URL+"/healthz", nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining: %d; want 503", resp.StatusCode)
	}

	// Shutdown waits for the in-flight solve, which completes normally.
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	res := <-inflight
	if res.status != http.StatusOK {
		t.Fatalf("in-flight solve during drain: %d %s", res.status, res.body)
	}
}

// TestShutdownTwice: Shutdowns racing each other, and one after they
// return, all get the same nil result instead of closing the worker
// channel again.
func TestShutdownTwice(t *testing.T) {
	srv := New(Config{Workers: 2})
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() { errs <- srv.Shutdown(context.Background()) }()
	}
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("concurrent shutdown: %v", err)
		}
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown after completion: %v", err)
	}
}

// TestShutdownRetryAfterTimeout: a Shutdown whose ctx expires while a
// solve is still running returns the ctx error and leaves the server
// draining; a later Shutdown waits for the solve and completes.
func TestShutdownRetryAfterTimeout(t *testing.T) {
	u := testUniverse(t, 40)
	srv := New(Config{Workers: 1, QueueDepth: 4})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	doc := testProblemDoc()
	doc.MaxEvals = 100000
	id := createSession(t, ts.URL, u, doc)
	inflight := make(chan int, 1)
	go func() {
		resp, _ := postJSON(t, ts.URL+"/v1/sessions/"+id+"/solve", solveRequest{})
		inflight <- resp.StatusCode
	}()
	waitFor(t, 10*time.Second, func() bool { return srv.metrics.inFlight.Load() == 1 })

	expired, cancel := context.WithCancel(context.Background())
	cancel()
	if err := srv.Shutdown(expired); !errors.Is(err, context.Canceled) {
		t.Fatalf("shutdown with an expired ctx: %v; want context.Canceled", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("retried shutdown: %v", err)
	}
	if status := <-inflight; status != http.StatusOK {
		t.Fatalf("in-flight solve across the retried shutdown: %d", status)
	}
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown after completion: %v", err)
	}
}

// TestAuditLog verifies mutations land in the JSONL audit log in order.
func TestAuditLog(t *testing.T) {
	u := testUniverse(t, 30)
	var buf syncBuffer
	_, ts := newTestServer(t, Config{AuditWriter: &buf})
	id := createSession(t, ts.URL, u, testProblemDoc())
	if resp, body := postJSON(t, ts.URL+"/v1/sessions/"+id+"/solve", solveRequest{}); resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: %d %s", resp.StatusCode, body)
	}

	var actions []string
	scanner := bufio.NewScanner(strings.NewReader(buf.String()))
	for scanner.Scan() {
		var e auditEntry
		if err := json.Unmarshal(scanner.Bytes(), &e); err != nil {
			t.Fatalf("audit line %q: %v", scanner.Text(), err)
		}
		if e.TS == "" {
			t.Error("audit entry missing timestamp")
		}
		actions = append(actions, e.Action)
	}
	want := []string{"session.create", "solve.enqueue", "solve.apply", "solve.done"}
	if !reflect.DeepEqual(actions, want) {
		t.Errorf("audit actions %v; want %v", actions, want)
	}
}

// TestCreateSessionFromSchemas exercises the Figure 1 text-format path.
func TestCreateSessionFromSchemas(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	schemas := `s1.example.com: {title, author, year}
s2.example.com: {title, writer, price}
s3.example.com: {name, author, isbn}
`
	resp, body := postJSON(t, ts.URL+"/v1/sessions", createSessionRequest{Schemas: schemas})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create from schemas: %d %s", resp.StatusCode, body)
	}
	var info sessionInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.Sources != 3 {
		t.Errorf("parsed %d sources; want 3", info.Sources)
	}
	if resp, body := postJSON(t, ts.URL+"/v1/sessions/"+info.ID+"/solve", solveRequest{}); resp.StatusCode != http.StatusOK {
		t.Errorf("solve on parsed universe: %d %s", resp.StatusCode, body)
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	//ube:nondeterministic-ok test polling deadline
	deadline := time.Now().Add(timeout)
	for !cond() {
		//ube:nondeterministic-ok test polling deadline
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// syncBuffer is a mutex-guarded bytes.Buffer for cross-goroutine audit
// capture.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
