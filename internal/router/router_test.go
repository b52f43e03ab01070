package router

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"sync"
	"testing"

	"ube/internal/engine"
	"ube/internal/model"
	"ube/internal/schemaio"
	"ube/internal/server"
	"ube/internal/synth"
)

// Shared helpers: in-process shard fleets behind an in-process router.
// Every shard is a full server.Server on an httptest listener, so the
// differential and chaos tests exercise real HTTP end to end.

const testUniverseN = 25

func testUniverse(t *testing.T, n int) *model.Universe {
	t.Helper()
	u, _, err := synth.Generate(synth.QuickConfig(n))
	if err != nil {
		t.Fatal(err)
	}
	return u
}

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

// shardFleet is N in-process ube-serve shards plus their URLs in shard-
// index order (the order fault plans address them by).
type shardFleet struct {
	urls    []string
	servers []*server.Server
	tests   []*httptest.Server
	audits  []*syncBuffer
}

// startShards boots n shards; cfg is cloned per shard, with each shard
// getting its own audit buffer.
func startShards(t *testing.T, n int, cfg server.Config) *shardFleet {
	t.Helper()
	f := &shardFleet{}
	for i := 0; i < n; i++ {
		audit := &syncBuffer{}
		c := cfg
		c.AuditWriter = audit
		srv := server.New(c)
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		f.urls = append(f.urls, ts.URL)
		f.servers = append(f.servers, srv)
		f.tests = append(f.tests, ts)
		f.audits = append(f.audits, audit)
	}
	return f
}

// startRouter mounts a router over the fleet with the background prober
// disabled (tests drive probes explicitly) and returns its base URL.
func startRouter(t *testing.T, f *shardFleet, cfg Config) (*Router, string) {
	t.Helper()
	cfg.Shards = f.urls
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = -1
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(func() { ts.Close(); rt.Close() })
	return rt, ts.URL
}

// syncBuffer is a mutex-guarded buffer for cross-goroutine audit reads.
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

// countAuditLines counts audit entries with the given action.
func countAuditLines(t *testing.T, b *syncBuffer, action string) int {
	t.Helper()
	n := 0
	for _, line := range bytes.Split([]byte(b.String()), []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var e struct {
			Action string `json:"action"`
		}
		if err := json.Unmarshal(line, &e); err != nil {
			t.Fatalf("bad audit line %q: %v", line, err)
		}
		if e.Action == action {
			n++
		}
	}
	return n
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
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
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

// createWithID creates a session under an explicit ID through base.
func createWithID(t *testing.T, base string, u *model.Universe, id string) {
	t.Helper()
	resp, body := postJSON(t, base+"/v1/sessions", map[string]any{
		"universe": u, "problem": testProblemDoc(), "id": id,
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create %q: %d %s", id, resp.StatusCode, body)
	}
}

type historyDoc struct {
	Iterations []schemaio.IterationDoc `json:"iterations"`
}

func fetchHistory(t *testing.T, base, id string) []schemaio.IterationDoc {
	t.Helper()
	var h historyDoc
	if resp := getJSON(t, base+"/v1/sessions/"+id+"/history", &h); resp.StatusCode != http.StatusOK {
		t.Fatalf("history %q: %d", id, resp.StatusCode)
	}
	return h.Iterations
}

// canonicalHistory zeroes the operational telemetry (wall-clock, match-
// cache traffic) that legitimately differs between bit-identical
// solves, then marshals: equal bytes mean equal solver-visible history.
func canonicalHistory(t *testing.T, iters []schemaio.IterationDoc) string {
	t.Helper()
	if iters == nil {
		iters = []schemaio.IterationDoc{}
	}
	for i := range iters {
		iters[i].Solution.ElapsedNS = 0
		iters[i].Solution.CacheHits = 0
		iters[i].Solution.CacheMisses = 0
		iters[i].Solution.CacheEvictions = 0
	}
	data, err := json.Marshal(iters)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// shardMap renders id→shard-index placement for failure messages.
func shardMap(rt *Router, ids []string) string {
	idx := make(map[string]int, len(rt.cfg.Shards))
	for i, s := range rt.cfg.Shards {
		idx[s] = i
	}
	var b bytes.Buffer
	for _, id := range ids {
		fmt.Fprintf(&b, "%s->shard%d ", id, idx[rt.ring.Lookup(id)])
	}
	return b.String()
}

// --- routing basics ---

func TestRouterCreateRouteAndList(t *testing.T) {
	u := testUniverse(t, testUniverseN)
	fleet := startShards(t, 2, server.Config{})
	rt, base := startRouter(t, fleet, Config{})

	// Minted create: router-owned g-prefixed ID, session reachable
	// through the router afterwards.
	resp, body := postJSON(t, base+"/v1/sessions", map[string]any{
		"universe": u, "problem": testProblemDoc(),
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("minted create: %d %s", resp.StatusCode, body)
	}
	var info struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if len(info.ID) < 2 || info.ID[0] != 'g' {
		t.Fatalf("minted ID %q, want g-prefixed", info.ID)
	}
	if resp := getJSON(t, base+"/v1/sessions/"+info.ID, nil); resp.StatusCode != http.StatusOK {
		t.Errorf("GET minted session via router: %d", resp.StatusCode)
	}

	// The session lives on exactly the shard the ring names.
	home := rt.ring.Lookup(info.ID)
	if resp := getJSON(t, home+"/v1/sessions/"+info.ID, nil); resp.StatusCode != http.StatusOK {
		t.Errorf("session not on its ring shard: %d", resp.StatusCode)
	}
	for _, shard := range fleet.urls {
		if shard == home {
			continue
		}
		if resp := getJSON(t, shard+"/v1/sessions/"+info.ID, nil); resp.StatusCode != http.StatusNotFound {
			t.Errorf("session leaked to non-home shard %s: %d", shard, resp.StatusCode)
		}
	}

	// Explicit-ID create routes by the same ring.
	createWithID(t, base, u, "alpha")
	if got := rt.ring.Lookup("alpha"); got != "" {
		if resp := getJSON(t, got+"/v1/sessions/alpha", nil); resp.StatusCode != http.StatusOK {
			t.Errorf("explicit-ID session not on ring shard: %d", resp.StatusCode)
		}
	}

	// Solve through the router, then compare router-side and shard-side
	// histories byte for byte: the proxy must not reshape anything.
	if resp, body := postJSON(t, base+"/v1/sessions/alpha/solve", map[string]any{}); resp.StatusCode != http.StatusOK {
		t.Fatalf("solve via router: %d %s", resp.StatusCode, body)
	}
	viaRouter := fetchHistory(t, base, "alpha")
	direct := fetchHistory(t, rt.ring.Lookup("alpha"), "alpha")
	if !reflect.DeepEqual(viaRouter, direct) {
		t.Error("router history differs from shard history")
	}

	// List merges both shards, sorted.
	var list struct {
		Sessions []string `json:"sessions"`
	}
	getJSON(t, base+"/v1/sessions", &list)
	if !sort.StringsAreSorted(list.Sessions) {
		t.Errorf("merged session list not sorted: %v", list.Sessions)
	}
	want := map[string]bool{info.ID: true, "alpha": true}
	for _, id := range list.Sessions {
		delete(want, id)
	}
	if len(want) != 0 {
		t.Errorf("merged list missing %v (got %v)", want, list.Sessions)
	}

	// Duplicate explicit ID conflicts straight through the proxy.
	resp, _ = postJSON(t, base+"/v1/sessions", map[string]any{
		"universe": u, "problem": testProblemDoc(), "id": "alpha",
	})
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("duplicate explicit ID via router: %d, want 409", resp.StatusCode)
	}
}

func TestRouterBinaryPassThrough(t *testing.T) {
	u := testUniverse(t, testUniverseN)
	fleet := startShards(t, 2, server.Config{})
	_, base := startRouter(t, fleet, Config{})
	createWithID(t, base, u, "bin-1")

	req, _ := http.NewRequest(http.MethodPost, base+"/v1/sessions/bin-1/solve", bytes.NewReader([]byte("{}")))
	req.Header.Set("Accept", schemaio.BinaryContentType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	frame, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("binary solve via router: %d %s", resp.StatusCode, frame)
	}
	if ct := resp.Header.Get("Content-Type"); ct != schemaio.BinaryContentType {
		t.Fatalf("content type through router: %q", ct)
	}
	sr, err := schemaio.DecodeBinarySolveResult(frame)
	if err != nil {
		t.Fatalf("binary frame mangled in transit: %v", err)
	}
	if sr.Session != "bin-1" || sr.Iteration != 0 {
		t.Errorf("binary solve result (%q, %d), want (bin-1, 0)", sr.Session, sr.Iteration)
	}
}

// headerShard is a shard stand-in that records the session-ID header of
// every request it receives and answers creates with 201.
type headerShard struct {
	mu   sync.Mutex
	seen []string
}

func (h *headerShard) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	_, _ = io.Copy(io.Discard, r.Body)
	if r.URL.Path != "/healthz" {
		h.mu.Lock()
		h.seen = append(h.seen, r.Method+" "+r.URL.Path+" "+r.Header.Get(schemaio.SessionIDHeader))
		h.mu.Unlock()
	}
	status := http.StatusOK
	if r.Method == http.MethodPost && r.URL.Path == "/v1/sessions" {
		status = http.StatusCreated
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write([]byte(`{}`))
}

// TestRouterSessionIDHeaderHygiene proves a client cannot steer
// placement through the shard-facing session-ID header: the router
// strips a client's copy from every proxied request and sets it only on
// the creates it mints.
func TestRouterSessionIDHeaderHygiene(t *testing.T) {
	send := func(base, method, path, body string) (int, []byte) {
		t.Helper()
		req, err := http.NewRequest(method, base+path, bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(schemaio.SessionIDHeader, "victim")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, out
	}

	// What the shard sees: the minted ID on a minted create, nothing on
	// anything else, never the client's value.
	rec := &headerShard{}
	ts := httptest.NewServer(rec)
	defer ts.Close()
	_, base := startRouter(t, &shardFleet{urls: []string{ts.URL}}, Config{})
	send(base, http.MethodPost, "/v1/sessions", `{"universe":{}}`)
	send(base, http.MethodPost, "/v1/sessions", `{"universe":{},"id":"alpha"}`)
	send(base, http.MethodPost, "/v1/sessions/alpha/solve", `{}`)
	send(base, http.MethodGet, "/v1/sessions/alpha", ``)
	want := []string{
		"POST /v1/sessions g1",
		"POST /v1/sessions ",
		"POST /v1/sessions/alpha/solve ",
		"GET /v1/sessions/alpha ",
	}
	if !reflect.DeepEqual(rec.seen, want) {
		t.Fatalf("shard saw session-ID headers %q, want %q", rec.seen, want)
	}

	// End to end: the header neither names a session nor moves one, and
	// it never turns a valid body id into a header/body mismatch.
	u := testUniverse(t, testUniverseN)
	fleet := startShards(t, 2, server.Config{})
	rt, base := startRouter(t, fleet, Config{})
	body, err := json.Marshal(map[string]any{"universe": u, "problem": testProblemDoc()})
	if err != nil {
		t.Fatal(err)
	}
	for _, withID := range []bool{false, true} {
		doc := string(body)
		if withID {
			doc = doc[:len(doc)-1] + `,"id":"chosen"}`
		}
		status, out := send(base, http.MethodPost, "/v1/sessions", doc)
		if status != http.StatusCreated {
			t.Fatalf("create (body id %v): %d %s", withID, status, out)
		}
		var info struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(out, &info); err != nil {
			t.Fatal(err)
		}
		switch {
		case withID && info.ID != "chosen":
			t.Errorf("create with body id: got session %q, want chosen", info.ID)
		case !withID && (info.ID == "victim" || info.ID == "" || info.ID[0] != 'g'):
			t.Errorf("create without body id: got session %q, want a minted g<N>", info.ID)
		}
		if resp := getJSON(t, rt.ring.Lookup(info.ID)+"/v1/sessions/"+info.ID, nil); resp.StatusCode != http.StatusOK {
			t.Errorf("session %q not on its ring shard: %d", info.ID, resp.StatusCode)
		}
	}
	for _, shard := range fleet.urls {
		if resp := getJSON(t, shard+"/v1/sessions/victim", nil); resp.StatusCode != http.StatusNotFound {
			t.Errorf("client header created session victim on %s", shard)
		}
	}
}

// --- health: eject, readmit, kill ---

// flakyShard is a minimal shard stand-in whose /healthz can be toggled;
// it lets the eject/readmit cycle run without timing dependence.
type flakyShard struct {
	mu      sync.Mutex
	healthy bool
}

func (f *flakyShard) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	ok := f.healthy
	f.mu.Unlock()
	if r.URL.Path == "/healthz" && !ok {
		http.Error(w, "down", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write([]byte(`{"status":"ok"}`))
}

func (f *flakyShard) set(ok bool) {
	f.mu.Lock()
	f.healthy = ok
	f.mu.Unlock()
}

func TestRouterEjectAndReadmit(t *testing.T) {
	flaky := &flakyShard{healthy: true}
	tsA := httptest.NewServer(flaky)
	defer tsA.Close()
	tsB := httptest.NewServer(&flakyShard{healthy: true})
	defer tsB.Close()

	rt, base := startRouter(t, &shardFleet{urls: []string{tsA.URL, tsB.URL}}, Config{})

	var hz healthzDoc
	getJSON(t, base+"/healthz", &hz)
	if hz.Status != "ok" || hz.HealthyShards != 2 {
		t.Fatalf("initial healthz: %+v", hz)
	}

	// Shard A fails its probe: ejected, router degrades but stays 200.
	flaky.set(false)
	rt.ProbeNow()
	if resp := getJSON(t, base+"/healthz", &hz); resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded healthz status code: %d", resp.StatusCode)
	}
	if hz.Status != "degraded" || hz.HealthyShards != 1 {
		t.Fatalf("degraded healthz: %+v", hz)
	}

	// A session homed on the ejected shard gets 503 + Retry-After.
	var down string
	for _, id := range []string{"k1", "k2", "k3", "k4", "k5", "k6", "k7", "k8"} {
		if rt.ring.Lookup(id) == tsA.URL {
			down = id
			break
		}
	}
	if down == "" {
		t.Fatal("no probe key hashed to the ejected shard; widen the key set")
	}
	resp := getJSON(t, base+"/v1/sessions/"+down, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("request to ejected shard: %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}

	// Probe recovery readmits it.
	flaky.set(true)
	rt.ProbeNow()
	getJSON(t, base+"/healthz", &hz)
	if hz.Status != "ok" || hz.HealthyShards != 2 {
		t.Fatalf("post-readmit healthz: %+v", hz)
	}

	// A kill is permanent: probes must NOT readmit.
	rt.KillShard(0)
	rt.ProbeNow()
	getJSON(t, base+"/healthz", &hz)
	if hz.HealthyShards != 1 {
		t.Fatalf("killed shard came back: %+v", hz)
	}
	if !hz.Shards[tsA.URL].Killed {
		t.Error("healthz does not mark the killed shard")
	}
}

// --- cross-shard determinism differential (satellite 1) ---

// TestCrossShardDeterminism runs one scripted workload against a single
// unsharded server, a 2-shard router, and a 4-shard router: every
// user's canonicalized history must be byte-identical across all three
// topologies. This is the paper's determinism contract surviving
// horizontal sharding.
func TestCrossShardDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("differential workload is slow")
	}
	u := testUniverse(t, testUniverseN)
	users := []string{"user-a", "user-b", "user-c", "user-d", "user-e"}

	// The script: 3 solves per user; user index k tightens theta on its
	// k%3-th iteration so the workload isn't symmetric across users.
	runWorkload := func(t *testing.T, base string) map[string]string {
		t.Helper()
		for _, id := range users {
			createWithID(t, base, u, id)
		}
		for iter := 0; iter < 3; iter++ {
			for k, id := range users {
				req := map[string]any{}
				if iter == k%3 {
					req["theta"] = 0.75
				}
				resp, body := postJSON(t, base+"/v1/sessions/"+id+"/solve", req)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("solve %s/%d: %d %s", id, iter, resp.StatusCode, body)
				}
			}
		}
		out := make(map[string]string, len(users))
		for _, id := range users {
			out[id] = canonicalHistory(t, fetchHistory(t, base, id))
		}
		return out
	}

	// Topology A: one plain server, no router.
	single := server.New(server.Config{})
	tsSingle := httptest.NewServer(single.Handler())
	defer tsSingle.Close()
	ref := runWorkload(t, tsSingle.URL)

	for _, shards := range []int{2, 4} {
		shards := shards
		t.Run(fmt.Sprintf("%d-shards", shards), func(t *testing.T) {
			fleet := startShards(t, shards, server.Config{})
			rt, base := startRouter(t, fleet, Config{})
			got := runWorkload(t, base)
			for _, id := range users {
				if got[id] != ref[id] {
					t.Errorf("user %s diverged on %d shards\nuniverse: synth.QuickConfig(%d)\nshard map: %s\nref:  %s\ngot:  %s",
						id, shards, testUniverseN, shardMap(rt, users), ref[id], got[id])
				}
			}
		})
	}
}

// --- aggregated metrics ---

func TestRouterMetricsAggregation(t *testing.T) {
	u := testUniverse(t, testUniverseN)
	fleet := startShards(t, 2, server.Config{})
	_, base := startRouter(t, fleet, Config{})

	ids := []string{"m1", "m2", "m3"}
	for _, id := range ids {
		createWithID(t, base, u, id)
		if resp, body := postJSON(t, base+"/v1/sessions/"+id+"/solve", map[string]any{}); resp.StatusCode != http.StatusOK {
			t.Fatalf("solve %s: %d %s", id, resp.StatusCode, body)
		}
	}

	var m metricsDoc
	if resp := getJSON(t, base+"/metrics", &m); resp.StatusCode != http.StatusOK {
		t.Fatalf("router metrics: %d", resp.StatusCode)
	}
	if m.Router.SolvesRouted != int64(len(ids)) {
		t.Errorf("solvesRouted = %d, want %d", m.Router.SolvesRouted, len(ids))
	}
	if m.Totals.Solves != int64(len(ids)) {
		t.Errorf("aggregated solves = %d, want %d", m.Totals.Solves, len(ids))
	}
	if m.Totals.SessionsActive != int64(len(ids)) {
		t.Errorf("aggregated active sessions = %d, want %d", m.Totals.SessionsActive, len(ids))
	}
	if len(m.Shards) != 2 {
		t.Errorf("per-shard metrics for %d shards, want 2", len(m.Shards))
	}
	if len(m.Unreachable) != 0 {
		t.Errorf("unreachable shards: %v", m.Unreachable)
	}
	// Per-shard request counters sum to at least the proxied total.
	var perShard int64
	for _, s := range m.Router.PerShard {
		perShard += s.Requests
	}
	if perShard != m.Router.Proxied {
		t.Errorf("per-shard requests %d != proxied %d", perShard, m.Router.Proxied)
	}
}
