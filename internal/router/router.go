package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ube/internal/faultinject"
	"ube/internal/schemaio"
)

// Config sizes the router.
type Config struct {
	// Shards are the shard base URLs ("http://host:port"), in a fixed
	// order: shard index in fault plans (router.shard-kill Arg) is an
	// index into this slice. At least one is required.
	Shards []string
	// Replicas is the virtual-node count per shard on the hash ring;
	// ≤0 gets DefaultReplicas. Every router fronting the same shard
	// set MUST use the same value, or they will disagree on placement.
	Replicas int
	// Client performs shard requests; nil gets a dedicated client with
	// sane connection pooling. SSE proxying requires a client without
	// a global timeout, so Config.Client timeouts are the caller's
	// responsibility.
	Client *http.Client
	// RetryAfterSeconds is the backoff guidance on router-generated
	// 503s. Default 2.
	RetryAfterSeconds int
	// ProbeInterval paces background shard health probes. 0 gets the
	// 500ms default; negative disables the prober (tests drive probes
	// explicitly via Probe).
	ProbeInterval time.Duration
	// FaultInjector arms the router.* chaos points (see
	// internal/faultinject). Nil in production.
	FaultInjector *faultinject.Injector
}

// Router is the consistent-hash front. Create with New, mount
// Handler(), Close when done.
type Router struct {
	cfg     Config
	ring    *Ring
	health  *healthTracker
	client  *http.Client
	mux     *http.ServeMux
	inj     *faultinject.Injector
	metrics *routerMetrics
	nextID  atomic.Int64

	done      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// New builds a router over the configured shards and starts the health
// prober (unless disabled).
func New(cfg Config) (*Router, error) {
	if len(cfg.Shards) == 0 {
		return nil, errors.New("router: no shards configured")
	}
	seen := make(map[string]bool, len(cfg.Shards))
	for _, s := range cfg.Shards {
		if s == "" || seen[s] {
			return nil, fmt.Errorf("router: empty or duplicate shard %q", s)
		}
		seen[s] = true
	}
	if cfg.RetryAfterSeconds <= 0 {
		cfg.RetryAfterSeconds = 2
	}
	rt := &Router{
		cfg:     cfg,
		ring:    NewRing(cfg.Replicas),
		health:  newHealthTracker(cfg.Shards),
		client:  cfg.Client,
		inj:     cfg.FaultInjector,
		metrics: newRouterMetrics(cfg.Shards),
		done:    make(chan struct{}),
	}
	rt.ring.Add(cfg.Shards...)
	if rt.client == nil {
		rt.client = &http.Client{Transport: &http.Transport{
			MaxIdleConns:        256,
			MaxIdleConnsPerHost: 64,
		}}
	}
	rt.routes()
	interval := cfg.ProbeInterval
	if interval == 0 {
		interval = 500 * time.Millisecond
	}
	if interval > 0 {
		rt.wg.Add(1)
		go rt.prober(interval)
	}
	return rt, nil
}

// Close stops the health prober. It does not touch the shards and may
// be called more than once.
func (rt *Router) Close() {
	rt.closeOnce.Do(func() { close(rt.done) })
	rt.wg.Wait()
}

// Handler returns the HTTP surface.
func (rt *Router) Handler() http.Handler { return rt.mux }

// ServeHTTP makes the router mountable directly.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) { rt.mux.ServeHTTP(w, r) }

// Ring exposes the placement ring (read-only) for tests and tooling.
func (rt *Router) Ring() *Ring { return rt.ring }

// ProbeNow runs one synchronous probe pass; tests use it to exercise
// eject/readmit without waiting on the background prober.
func (rt *Router) ProbeNow() {
	rt.health.probeAll(context.Background(), rt.client)
}

// KillShard permanently ejects a shard by index (operator surface and
// the implementation of router.shard-kill with an Arg).
func (rt *Router) KillShard(i int) {
	if i >= 0 && i < len(rt.cfg.Shards) {
		rt.health.kill(rt.cfg.Shards[i])
		rt.metrics.shardKills.Add(1)
	}
}

func (rt *Router) prober(interval time.Duration) {
	defer rt.wg.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-rt.done:
			return
		case <-t.C:
			rt.health.probeAll(context.Background(), rt.client)
		}
	}
}

func (rt *Router) routes() {
	rt.mux = http.NewServeMux()
	rt.mux.HandleFunc("GET /healthz", rt.handleHealthz)
	rt.mux.HandleFunc("GET /metrics", rt.handleMetrics)
	rt.mux.HandleFunc("POST /v1/sessions", rt.handleCreate)
	rt.mux.HandleFunc("GET /v1/sessions", rt.handleList)
	rt.mux.HandleFunc("/v1/sessions/{id}", rt.handleSession)
	rt.mux.HandleFunc("/v1/sessions/{id}/{rest...}", rt.handleSession)
}

type errorDoc struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	data, _ := json.Marshal(v)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	w.WriteHeader(status)
	_, _ = w.Write(data)
}

func (rt *Router) writeUnavailable(w http.ResponseWriter, format string, args ...any) {
	w.Header().Set("Retry-After", strconv.Itoa(rt.cfg.RetryAfterSeconds))
	writeJSON(w, http.StatusServiceUnavailable, errorDoc{Error: fmt.Sprintf(format, args...)})
}

// --- session create: ID minting and placement ---

// errNotObject refuses a create body the ID scan cannot read as one
// JSON object followed only by whitespace.
var errNotObject = errors.New("body is not one JSON object")

// scanCreateID returns the session ID a create body names, or "" when it
// names none, in one pass over the bytes that allocates only for the ID
// it returns (and an escaped key, which no real client sends). It reads
// the top-level keys the way the shard's strict encoding/json decode
// does: a key is unescaped and matches "id" case-insensitively
// (bytes.EqualFold, encoding/json's fold rule); the last match wins; a
// null value leaves the ID as it was; nested values are skipped unread.
// The scan checks structure only as far as placement needs it — the
// shard's decoder judges everything inside the values.
func scanCreateID(b []byte) (string, error) {
	i := skipSpace(b, 0)
	if i == len(b) || b[i] != '{' {
		return "", errNotObject
	}
	i = skipSpace(b, i+1)
	if i < len(b) && b[i] == '}' {
		return "", trailing(b, i+1)
	}
	id := ""
	for {
		if i == len(b) || b[i] != '"' {
			return "", errNotObject
		}
		keyEnd := stringEnd(b, i+1)
		if keyEnd < 0 {
			return "", errNotObject
		}
		key := b[i:keyEnd]
		i = skipSpace(b, keyEnd)
		if i == len(b) || b[i] != ':' {
			return "", errNotObject
		}
		start := skipSpace(b, i+1)
		end, err := skipValue(b, start)
		if err != nil {
			return "", err
		}
		if isIDKey(key) {
			switch v := b[start:end]; {
			case string(v) == "null":
				// Decoding null into a string is a no-op.
			case v[0] == '"':
				var s string
				if err := json.Unmarshal(v, &s); err != nil {
					return "", fmt.Errorf("id: %v", err)
				}
				id = s
			default:
				return "", errors.New("id is not a string")
			}
		}
		i = skipSpace(b, end)
		if i < len(b) && b[i] == ',' {
			i = skipSpace(b, i+1)
			continue
		}
		if i < len(b) && b[i] == '}' {
			return id, trailing(b, i+1)
		}
		return "", errNotObject
	}
}

// isIDKey reports whether a quoted key decodes to a name encoding/json
// matches to the "id" field.
func isIDKey(quoted []byte) bool {
	name := quoted[1 : len(quoted)-1]
	if bytes.IndexByte(name, '\\') < 0 {
		return bytes.EqualFold(name, []byte("id"))
	}
	var k string
	return json.Unmarshal(quoted, &k) == nil && strings.EqualFold(k, "id")
}

// skipValue returns the index just past the JSON value starting at b[i]:
// a string, a bracketed value skipped by depth, or a bare scalar token.
func skipValue(b []byte, i int) (int, error) {
	if i == len(b) {
		return 0, errNotObject
	}
	switch b[i] {
	case '"':
		if end := stringEnd(b, i+1); end >= 0 {
			return end, nil
		}
	case '{', '[':
		depth := 0
		for i < len(b) {
			switch b[i] {
			case '"':
				end := stringEnd(b, i+1)
				if end < 0 {
					return 0, errNotObject
				}
				i = end
				continue
			case '{', '[':
				depth++
			case '}', ']':
				if depth--; depth == 0 {
					return i + 1, nil
				}
			}
			i++
		}
	default:
		start := i
		for i < len(b) && !strings.ContainsRune(" \t\r\n,:{}[]\"", rune(b[i])) {
			i++
		}
		if i > start {
			return i, nil
		}
	}
	return 0, errNotObject
}

// stringEnd returns the index just past the closing quote of the JSON
// string whose contents start at b[i], or -1 when it is unterminated. A
// quote closes the string unless an odd run of backslashes escapes it;
// the search jumps from quote to quote, so a long string (a base64
// signature) costs one vectorised byte search.
func stringEnd(b []byte, i int) int {
	for {
		j := bytes.IndexByte(b[i:], '"')
		if j < 0 {
			return -1
		}
		j += i
		k := j
		for k > i && b[k-1] == '\\' {
			k--
		}
		if (j-k)%2 == 0 {
			return j + 1
		}
		i = j + 1
	}
}

func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\r' || b[i] == '\n') {
		i++
	}
	return i
}

// trailing refuses anything but whitespace after the body's object.
func trailing(b []byte, i int) error {
	if skipSpace(b, i) != len(b) {
		return errors.New("trailing content after JSON body")
	}
	return nil
}

func (rt *Router) handleCreate(w http.ResponseWriter, r *http.Request) {
	raw, err := schemaio.ReadBody(r.Body, r.ContentLength, schemaio.MaxBodyBytes)
	if errors.Is(err, schemaio.ErrBodyTooLarge) {
		writeJSON(w, http.StatusRequestEntityTooLarge, errorDoc{Error: "request body too large"})
		return
	}
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorDoc{Error: "reading request body: " + err.Error()})
		return
	}
	explicitID, err := scanCreateID(raw)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorDoc{Error: err.Error()})
		return
	}

	if explicitID != "" {
		// The client chose the key, so placement is fixed: the session
		// must live where the ring puts it, healthy or not.
		shard := rt.ring.Lookup(explicitID)
		if !rt.health.usable(shard) {
			rt.metrics.createRejects.Add(1)
			rt.writeUnavailable(w, "shard for session %q is unavailable", explicitID)
			return
		}
		rt.forward(w, r, shard, bytes.NewReader(raw), int64(len(raw)), false)
		return
	}

	// Minted ID: the router owns the key, so it can re-mint until the
	// key lands on a healthy shard (bounded — with all shards down
	// there is nobody to talk to) and on ID collision (a restarted
	// router re-minting a key some earlier life already placed: the
	// shard answers 409 and the next counter value is tried).
	attempts := 4*len(rt.cfg.Shards) + 4
	for i := 0; i < attempts; i++ {
		id := "g" + strconv.FormatInt(rt.nextID.Add(1), 10)
		shard := rt.ring.Lookup(id)
		if !rt.health.usable(shard) {
			continue
		}
		req, err := http.NewRequestWithContext(r.Context(), http.MethodPost, shard+"/v1/sessions", bytes.NewReader(raw))
		if err != nil {
			writeJSON(w, http.StatusInternalServerError, errorDoc{Error: err.Error()})
			return
		}
		copyProxyHeaders(req.Header, r.Header)
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(schemaio.SessionIDHeader, id)
		req.ContentLength = int64(len(raw))
		resp, err := rt.client.Do(req)
		if err != nil {
			rt.health.markFailure(shard)
			rt.metrics.forShard(shard).errors.Add(1)
			continue
		}
		if resp.StatusCode == http.StatusConflict {
			// Minted-ID collision: drain and mint the next counter.
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			rt.metrics.createRetries.Add(1)
			continue
		}
		rt.health.markSuccess(shard)
		if resp.StatusCode == http.StatusCreated {
			rt.metrics.createsMinted.Add(1)
		}
		rt.copyResponse(w, resp, shard)
		return
	}
	rt.metrics.createRejects.Add(1)
	rt.writeUnavailable(w, "no healthy shard available for a new session")
}

// --- session routing ---

func (rt *Router) handleSession(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rest := r.PathValue("rest")
	shard := rt.ring.Lookup(id)

	if rest == "solve" && r.Method == http.MethodPost {
		// The chaos points fire at the solve-proxy boundary only, so
		// trigger counts are scriptable from the workload alone.
		if f := rt.inj.Fire(faultinject.RouterShardKill); f != nil {
			target := shard
			if f.Arg > 0 && int(f.Arg) <= len(rt.cfg.Shards) {
				target = rt.cfg.Shards[f.Arg-1]
			}
			rt.health.kill(target)
			rt.metrics.shardKills.Add(1)
		}
		if f := rt.inj.Fire(faultinject.RouterPartition); f != nil {
			rt.metrics.partitionDrops.Add(1)
			rt.metrics.solveRejects.Add(1)
			rt.writeUnavailable(w, "router partition: solve dropped (arrival %d)", f.Arrival)
			return
		}
	}

	if !rt.health.usable(shard) {
		if rest == "solve" && r.Method == http.MethodPost {
			rt.metrics.solveRejects.Add(1)
		}
		rt.writeUnavailable(w, "shard for session %q is unavailable", id)
		return
	}
	rt.forward(w, r, shard, r.Body, r.ContentLength, rest == "solve" && r.Method == http.MethodPost)
}

// forward proxies one request to shard and streams the response back.
// SSE responses are flushed frame by frame so progress events arrive
// live through the router.
func (rt *Router) forward(w http.ResponseWriter, r *http.Request, shard string, body io.Reader, contentLength int64, isSolve bool) {
	req, err := http.NewRequestWithContext(r.Context(), r.Method, shard+pathOf(r), body)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorDoc{Error: err.Error()})
		return
	}
	copyProxyHeaders(req.Header, r.Header)
	req.ContentLength = contentLength
	resp, err := rt.client.Do(req)
	if err != nil {
		rt.health.markFailure(shard)
		rt.metrics.forShard(shard).errors.Add(1)
		rt.metrics.proxyErrors.Add(1)
		if isSolve {
			rt.metrics.solveRejects.Add(1)
		}
		rt.writeUnavailable(w, "shard unavailable: %v", err)
		return
	}
	rt.health.markSuccess(shard)
	if isSolve && resp.StatusCode == http.StatusOK {
		rt.metrics.solvesRouted.Add(1)
	}
	rt.copyResponse(w, resp, shard)
}

// pathOf rebuilds the shard-side path of the inbound request. The
// router's surface is identical to the shard's, so the inbound escaped
// path + query forward verbatim.
func pathOf(r *http.Request) string {
	p := r.URL.EscapedPath()
	if q := r.URL.RawQuery; q != "" {
		p += "?" + q
	}
	return p
}

func (rt *Router) copyResponse(w http.ResponseWriter, resp *http.Response, shard string) {
	defer resp.Body.Close()
	rt.metrics.proxied.Add(1)
	rt.metrics.forShard(shard).requests.Add(1)
	//ube:nondeterministic-ok HTTP headers are an unordered set per RFC 9110
	for k, vs := range resp.Header {
		if isHopByHop(k) {
			continue
		}
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	if strings.HasPrefix(resp.Header.Get("Content-Type"), "text/event-stream") {
		rt.streamSSE(w, resp.Body)
		return
	}
	_, _ = io.Copy(w, resp.Body)
}

// streamSSE relays an event stream with a flush after every read so
// frames cross the router as they arrive, not when a buffer fills.
func (rt *Router) streamSSE(w http.ResponseWriter, body io.Reader) {
	rc := http.NewResponseController(w)
	_ = rc.Flush()
	buf := make([]byte, 32<<10)
	for {
		n, err := body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			_ = rc.Flush()
		}
		if err != nil {
			return
		}
	}
}

// copyProxyHeaders forwards end-to-end headers, dropping hop-by-hop
// ones (RFC 9110 §7.6.1) and the session-ID header: only the router
// may name a minted ID to a shard, so a client's copy never passes.
func copyProxyHeaders(dst, src http.Header) {
	//ube:nondeterministic-ok HTTP headers are an unordered set per RFC 9110
	for k, vs := range src {
		if isHopByHop(k) || strings.EqualFold(k, "Host") || strings.EqualFold(k, schemaio.SessionIDHeader) {
			continue
		}
		for _, v := range vs {
			dst.Add(k, v)
		}
	}
}

func isHopByHop(k string) bool {
	switch http.CanonicalHeaderKey(k) {
	case "Connection", "Keep-Alive", "Proxy-Authenticate", "Proxy-Authorization",
		"Proxy-Connection", "Te", "Trailer", "Transfer-Encoding", "Upgrade":
		return true
	}
	return false
}

// --- list / healthz / metrics aggregation ---

func (rt *Router) handleList(w http.ResponseWriter, r *http.Request) {
	merged := make([]string, 0, 64)
	for _, shard := range rt.cfg.Shards {
		if !rt.health.usable(shard) {
			continue
		}
		var doc struct {
			Sessions []string `json:"sessions"`
		}
		if err := rt.getJSON(r, shard, "/v1/sessions", &doc); err != nil {
			rt.health.markFailure(shard)
			continue
		}
		merged = append(merged, doc.Sessions...)
	}
	sort.Strings(merged)
	writeJSON(w, http.StatusOK, map[string][]string{"sessions": merged})
}

// healthzDoc is the router's aggregated /healthz body.
type healthzDoc struct {
	// Status is "ok" with every shard usable, else "degraded". The
	// router answers 200 either way — it is itself alive — so load
	// balancers keep it in rotation while it sheds only the dead
	// shard's keyspace.
	Status        string                 `json:"status"`
	HealthyShards int                    `json:"healthyShards"`
	TotalShards   int                    `json:"totalShards"`
	Shards        map[string]shardHealth `json:"shards"`
}

type shardHealth struct {
	Healthy bool `json:"healthy"`
	Killed  bool `json:"killed,omitempty"`
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	doc := healthzDoc{Shards: make(map[string]shardHealth, len(rt.cfg.Shards))}
	for _, shard := range rt.cfg.Shards {
		st := rt.health.state(shard)
		doc.Shards[shard] = shardHealth{Healthy: rt.health.usable(shard), Killed: st.killed.Load()}
	}
	doc.HealthyShards, doc.TotalShards = rt.health.healthyCount()
	doc.Status = "ok"
	if doc.HealthyShards < doc.TotalShards {
		doc.Status = "degraded"
	}
	writeJSON(w, http.StatusOK, doc)
}

// shardTotals are the shard counters the router sums for its
// aggregated view; the full per-shard /metrics docs ride alongside.
type shardTotals struct {
	SessionsCreated int64 `json:"sessionsCreated"`
	SessionsActive  int64 `json:"sessionsActive"`
	Solves          int64 `json:"solves"`
	SolvesAdmitted  int64 `json:"solvesAdmitted"`
	SolveErrors     int64 `json:"solveErrors"`
	QueueRejections int64 `json:"queueRejections"`
}

// metricsDoc is the router's aggregated /metrics body.
type metricsDoc struct {
	Router routerCountersDoc `json:"router"`
	// Totals sums the reachable shards' key counters; Unreachable
	// lists shards whose /metrics could not be fetched, so a partial
	// sum is never mistaken for a full one.
	Totals      shardTotals                `json:"totals"`
	Unreachable []string                   `json:"unreachableShards,omitempty"`
	Shards      map[string]json.RawMessage `json:"shards"`
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	doc := metricsDoc{
		Router: rt.metrics.snapshot(rt.health),
		Shards: make(map[string]json.RawMessage, len(rt.cfg.Shards)),
	}
	for _, shard := range rt.cfg.Shards {
		raw, err := rt.getRaw(r, shard, "/metrics")
		if err != nil {
			doc.Unreachable = append(doc.Unreachable, shard)
			continue
		}
		doc.Shards[shard] = raw
		var t shardTotals
		if json.Unmarshal(raw, &t) == nil {
			doc.Totals.SessionsCreated += t.SessionsCreated
			doc.Totals.SessionsActive += t.SessionsActive
			doc.Totals.Solves += t.Solves
			doc.Totals.SolvesAdmitted += t.SolvesAdmitted
			doc.Totals.SolveErrors += t.SolveErrors
			doc.Totals.QueueRejections += t.QueueRejections
		}
	}
	writeJSON(w, http.StatusOK, doc)
}

func (rt *Router) getJSON(r *http.Request, shard, path string, out any) error {
	raw, err := rt.getRaw(r, shard, path)
	if err != nil {
		return err
	}
	return json.Unmarshal(raw, out)
}

func (rt *Router) getRaw(r *http.Request, shard, path string) (json.RawMessage, error) {
	req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, shard+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("shard %s %s: status %d", shard, path, resp.StatusCode)
	}
	return io.ReadAll(io.LimitReader(resp.Body, 8<<20))
}
