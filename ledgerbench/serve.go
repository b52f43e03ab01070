package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ube/internal/engine"
	"ube/internal/model"
	"ube/internal/qef"
	"ube/internal/router"
	"ube/internal/schemaio"
	"ube/internal/server"
	"ube/internal/synth"
	"ube/internal/trace"
)

// serve-sessions: the real request path. One client in a closed loop —
// the process's CPU time over a request is the request's own only while
// nothing else runs, and a second client's solves would make a request's
// latency depend on whether the two sessions share a shard — talks over
// loopback to internal/router, in process, in front of two
// in-process server shards; each shard has one solve worker, a WAL with
// fsync and an audit log. The client plays users one after another. A
// user creates a session over the 700-source §7.1 catalog (a ~2 MB
// universe JSON), runs the feedback edits with its own seed, weights and
// θ, applies one seeded PATCH …/universe batch midway, fetches its
// history and deletes the session. The solve memo stays at its default
// (off).
//
// Why: the only workload that exercises router placement and proxying,
// the schemaio decode and encode, the WAL and audit. Writes
// (create, PATCH, WAL records) run beside reads (solve, history), and
// the engine work is small enough that these layers are a visible share.

const (
	serveSources = 700
	servePool    = 64
	serveEvals   = 300
	// serveReplayWorkers replay users' scripts for the untimed check.
	serveReplayWorkers = 2
	serveShards        = 2
	// serveSolves is the solves per user script; the PATCH comes before
	// solve servePatchBefore.
	serveSolves      = 8
	servePatchBefore = 3
	serveSetupReps   = 8 // builds timed before the phase, and again after
	// serveSolveWorkers is each solve's evaluation fan-out: one, for the
	// reason fig6Workers is.
	serveSolveWorkers = 1
	serveWarmUser     = 1 << 30
	serveSetupUser    = 1<<30 + 1
	// A traced phase fetches the solve traces of every serveTraceEvery-th
	// user, up to serveTraceUsers users.
	serveTraceEvery = 4
	serveTraceUsers = 4
	// Request headers that let the traced run's shard middleware attach
	// handler spans to the client's operation.
	hdrOp   = "X-Ledger-Op"
	hdrSpan = "X-Ledger-Span"
)

type serveWork struct {
	cfg    runConfig
	ubytes []byte
	pool   []model.Source
	n      int
	evals  int
	dir    string

	fleet *fleet
	// tap is the traced run's recorder, read by the shard middleware;
	// nil while untraced.
	tap atomic.Pointer[recorder]
	// shardOps counts solves per shard while tracing.
	shardMu  sync.Mutex
	shardOps map[string]int
}

// fleet is two shards behind one router, all on loopback.
type fleet struct {
	shards []*shard
	rt     *router.Router
	rtHTTP *http.Server
	base   string
}

type shard struct {
	srv   *server.Server
	http  *http.Server
	url   string
	audit *os.File
}

func newServe(cfg runConfig) (*serveWork, error) {
	sc := synth.DefaultConfig()
	n, evals := serveSources, serveEvals
	if cfg.Smoke {
		sc = synth.QuickConfig(60)
		n, evals = 60, 40
	}
	sc.Seed = cfg.Seed
	sc.Workers = 2
	// Adds come from sources generated past the catalog, so they share
	// its signature parameters.
	sc.NumSources = n + servePool
	all, _, err := synth.Generate(sc)
	if err != nil {
		return nil, fmt.Errorf("generating catalog: %w", err)
	}
	ub, err := json.Marshal(&model.Universe{Sources: all.Sources[:n]})
	if err != nil {
		return nil, fmt.Errorf("encoding catalog: %w", err)
	}
	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.OutDir, "serve-")
	if err != nil {
		return nil, err
	}
	return &serveWork{cfg: cfg, ubytes: ub, pool: all.Sources[n:], n: n, evals: evals, dir: dir}, nil
}

// bringUp starts the shards and the router and waits until the router
// answers /healthz.
func (w *serveWork) bringUp(tag string) (*fleet, error) {
	f := &fleet{}
	var urls []string
	for i := 0; i < serveShards; i++ {
		d := filepath.Join(w.dir, tag, "shard"+strconv.Itoa(i))
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
		audit, err := os.Create(filepath.Join(d, "audit.jsonl"))
		if err != nil {
			return nil, err
		}
		srv, err := server.Open(server.Config{Workers: 1, WALDir: filepath.Join(d, "wal"), WALFsync: true, AuditWriter: audit})
		if err != nil {
			audit.Close()
			f.tearDown()
			return nil, fmt.Errorf("opening shard %d: %w", i, err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			audit.Close()
			f.tearDown()
			return nil, err
		}
		sh := &shard{srv: srv, url: "http://" + ln.Addr().String(), audit: audit}
		sh.http = &http.Server{Handler: w.tapped(sh.url, srv.Handler())}
		go func() { _ = sh.http.Serve(ln) }()
		f.shards = append(f.shards, sh)
		urls = append(urls, sh.url)
	}
	rt, err := router.New(router.Config{Shards: urls, ProbeInterval: -1})
	if err != nil {
		f.tearDown()
		return nil, err
	}
	f.rt = rt
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.tearDown()
		return nil, err
	}
	f.rtHTTP = &http.Server{Handler: rt.Handler()}
	go func() { _ = f.rtHTTP.Serve(ln) }()
	f.base = "http://" + ln.Addr().String()
	resp, err := http.Get(f.base + "/healthz")
	if err != nil {
		f.tearDown()
		return nil, fmt.Errorf("router health: %w", err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		f.tearDown()
		return nil, fmt.Errorf("router health: HTTP %d", resp.StatusCode)
	}
	return f, nil
}

// tearDown stops the router, then the shards (draining their workers and
// closing their WALs), and waits for every server goroutine.
func (f *fleet) tearDown() {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if f.rtHTTP != nil {
		_ = f.rtHTTP.Shutdown(ctx)
	}
	if f.rt != nil {
		f.rt.Close()
	}
	for _, sh := range f.shards {
		_ = sh.http.Shutdown(ctx)
		if err := sh.srv.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "ledgerbench: shard shutdown:", err)
		}
		sh.audit.Close()
	}
}

// tapped wraps a shard's handler: while a recorder is installed it
// records a server.handler span for every request that carries the
// client's operation headers, and counts solves per shard.
func (w *serveWork) tapped(name string, next http.Handler) http.Handler {
	if !w.cfg.Trace {
		return next
	}
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		rec := w.tap.Load()
		opHdr := r.Header.Get(hdrOp)
		if rec == nil || opHdr == "" {
			next.ServeHTTP(rw, r)
			return
		}
		start := rec.now()
		next.ServeHTTP(rw, r)
		end := rec.now()
		op, _ := strconv.ParseInt(opHdr, 10, 64)
		parent, _ := strconv.ParseInt(r.Header.Get(hdrSpan), 10, 32)
		rec.add(op, int32(parent), "server.handler", start, end)
		if r.Method == http.MethodPost && filepath.Base(r.URL.Path) == "solve" {
			w.shardMu.Lock()
			w.shardOps[name]++
			w.shardMu.Unlock()
		}
	})
}

// user is one scripted user: its starting problem, its solve edits and
// its churn batch, all a pure function of (seed, index).
type user struct {
	idx           int
	prob          *schemaio.ProblemDoc
	card          float64 // reweight targets
	coverage      float64
	theta0, theta float64 // starting and tightened θ
	pin           int     // picks pinned sources from the previous solution
	patch         []byte
}

// createBody is the user's create request: the catalog plus its problem.
// It is built when sent, not kept: at ~2 MB a user, keeping it would
// swamp the heap reading.
func (w *serveWork) createBody(u *user) ([]byte, error) {
	pj, err := json.Marshal(u.prob)
	if err != nil {
		return nil, err
	}
	var b bytes.Buffer
	b.Grow(len(w.ubytes) + len(pj) + 32)
	b.WriteString(`{"universe":`)
	b.Write(w.ubytes)
	b.WriteString(`,"problem":`)
	b.Write(pj)
	b.WriteString(`}`)
	return b.Bytes(), nil
}

func (w *serveWork) user(idx int) (*user, error) {
	rng := rand.New(rand.NewSource(w.cfg.Seed*1_000_003 + int64(idx) + 7))
	p := engine.DefaultProblem()
	if w.cfg.Smoke {
		p.MaxSources = 8
	}
	p.Workers = serveSolveWorkers
	p.Theta = []float64{0.6, 0.65}[rng.Intn(2)]
	names := make([]string, 0, len(p.Weights))
	for k := range p.Weights {
		names = append(names, k)
	}
	sort.Strings(names) // rng draws must not follow map order
	wt := qef.Weights{}
	for _, k := range names {
		wt[k] = p.Weights[k] * (0.75 + 0.5*rng.Float64())
	}
	p.Weights = wt.Normalized()
	p.MaxEvals = w.evals
	p.Seed = rng.Int63n(1 << 40)
	doc, err := schemaio.EncodeProblem(&p)
	if err != nil {
		return nil, err
	}
	u := &user{idx: idx, prob: doc, card: 0.3 + 0.3*rng.Float64(), theta0: p.Theta,
		theta: p.Theta + []float64{0.05, 0.1}[rng.Intn(2)], pin: rng.Intn(1 << 20), coverage: 0.1 + 0.2*rng.Float64()}
	card := int64(10_000 + rng.Intn(990_000))
	add := w.pool[idx%len(w.pool)]
	muts := []model.Mutation{
		{Op: engine.OpAdd, Source: add},
		{Op: engine.OpRemove, ID: rng.Intn(w.n + 1)},
		{Op: engine.OpUpdate, ID: rng.Intn(w.n), Cardinality: &card},
	}
	if u.patch, err = schemaio.EncodeChurnRequest(muts); err != nil {
		return nil, err
	}
	return u, nil
}

// edit is the body of the user's solve k, given the previous solution.
func (u *user) edit(k int, last []int) solveEdit {
	var e solveEdit
	switch k {
	case 1:
		e.SetWeights = map[string]float64{"card": u.card}
	case 2:
		e.Theta = &u.theta
	case 4, 7:
		if len(last) > 0 {
			e.PinSources = []int{last[(u.pin+k)%len(last)]}
		}
	case 5:
		e.SetWeights = map[string]float64{"coverage": u.coverage}
	case 6:
		e.Theta = &u.theta0
	}
	return e
}

// solveEdit is the part of the server's solve request body the script
// uses.
type solveEdit struct {
	Theta      *float64           `json:"theta,omitempty"`
	SetWeights map[string]float64 `json:"setWeights,omitempty"`
	PinSources []int              `json:"pinSources,omitempty"`
}

// apply performs the edit on an in-process session in the order the
// server applies a solve request's edits: θ, then weights by ascending
// name, then pins.
func (e solveEdit) apply(sess *engine.Session) error {
	if e.Theta != nil {
		sess.SetTheta(*e.Theta)
	}
	names := make([]string, 0, len(e.SetWeights))
	for n := range e.SetWeights {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if err := sess.SetWeight(n, e.SetWeights[n]); err != nil {
			return err
		}
	}
	for _, id := range e.PinSources {
		if err := sess.RequireSource(id); err != nil {
			return err
		}
	}
	return nil
}

// client is one closed-loop load generator with its own connection.
type client struct {
	w    *serveWork
	http *http.Client
	base string
	rec  *recorder
}

func (w *serveWork) newClient(base string, rec *recorder) *client {
	return &client{w: w, base: base, rec: rec, http: &http.Client{
		Timeout:   2 * time.Minute,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
	}}
}

// do sends one request and reads the whole response body.
func (c *client) do(method, path string, body []byte, op int64, span int32) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if span >= 0 {
		req.Header.Set(hdrOp, strconv.FormatInt(op, 10))
		req.Header.Set(hdrSpan, strconv.FormatInt(int64(span), 10))
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// solveRec is one solve as the client saw it.
type solveRec struct {
	key       int // user*serveSolves + step: the deterministic order
	cost      opCost
	quality   float64
	bytes     int
	elapsedNS int64
	root      int32
	op        int64
}

// userRun is what one user's script produced.
type userRun struct {
	u          *user
	id         string
	createCost opCost
	create     int32 // traced create root span
	solves     []solveRec
	patched    bool
	fetched    bool // history fetched
	closed     bool // session deleted
	// traceKept marks a traced phase's sampled user: its session stays
	// open until the phase has ended, when its solve traces are fetched.
	traceKept bool
	// historySum hashes the normalized served history; the bytes
	// themselves are kept only in traced phases, for the replay probes.
	historySum [sha256.Size]byte
	history    []byte
	failed     error
	rejected   int
}

// stopFn tells a client whether the timed phase is over.
type stopFn func() bool

// play runs a user's script — the create and then up to solves solves —
// until it ends or stop() reports the phase over after an operation. The
// session is left open; fetchHistory and close finish it.
func (c *client) play(u *user, solves int, stop stopFn, onSolve func(solveRec)) *userRun {
	r := &userRun{u: u}
	create, err := c.w.createBody(u)
	if err != nil {
		r.failed = err
		return r
	}
	createOp := int64(-1 - u.idx)
	root := c.rec.begin(createOp, -1, "op.create")
	clk := startOp()
	status, body, err := c.do(http.MethodPost, "/v1/sessions", create, createOp, root)
	r.createCost = clk.stop()
	c.rec.end(root)
	r.create = root
	if err == nil && status != http.StatusCreated {
		err = fmt.Errorf("create: HTTP %d: %s", status, bytes.TrimSpace(body))
	}
	if err != nil {
		r.failed = err
		return r
	}
	var created struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &created); err != nil || created.ID == "" {
		r.failed = fmt.Errorf("create: bad body: %v", err)
		return r
	}
	r.id = created.ID
	path := "/v1/sessions/" + r.id
	var last []int
	for k := 0; k < solves; k++ {
		if k == servePatchBefore {
			status, body, err := c.do(http.MethodPatch, path+"/universe", u.patch, -1, -1)
			if err == nil && status != http.StatusOK {
				err = fmt.Errorf("patch: HTTP %d: %s", status, bytes.TrimSpace(body))
			}
			if err != nil {
				r.failed = err
				return r
			}
			r.patched = true
		}
		edit, _ := json.Marshal(u.edit(k, last)) // a plain struct: marshalling cannot fail
		op := int64(u.idx*serveSolves + k)
		root := c.rec.begin(op, -1, "op.solve")
		clk := startOp()
		status, body, err := c.do(http.MethodPost, path+"/solve", edit, op, root)
		cost := clk.stop()
		c.rec.end(root)
		if status == http.StatusTooManyRequests {
			r.rejected++
		}
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("solve %d: HTTP %d: %s", k, status, bytes.TrimSpace(body))
		}
		if err != nil {
			r.failed = err
			return r
		}
		var resp struct {
			Solution *schemaio.SolutionDoc `json:"solution"`
		}
		if err := json.Unmarshal(body, &resp); err != nil || resp.Solution == nil {
			r.failed = fmt.Errorf("solve %d: bad body: %v", k, err)
			return r
		}
		last = resp.Solution.Sources
		s := solveRec{key: u.idx*serveSolves + k, cost: cost, quality: resp.Solution.Quality, bytes: len(body),
			elapsedNS: resp.Solution.ElapsedNS, root: root, op: op}
		r.solves = append(r.solves, s)
		onSolve(s)
		if stop() {
			return r
		}
	}
	return r
}

// fetchHistory fetches the user's history, normalized for the replay
// check; keep retains the bytes for the replay probes.
func (c *client) fetchHistory(r *userRun, keep bool) {
	if r.id == "" || r.fetched || r.failed != nil {
		return
	}
	r.fetched = true
	status, body, err := c.do(http.MethodGet, "/v1/sessions/"+r.id+"/history", nil, -1, -1)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("history: HTTP %d", status)
	}
	var h []byte
	if err == nil {
		h, err = normalizeHistory(body)
	}
	if err != nil {
		r.failed = err
		return
	}
	r.historySum = sha256.Sum256(h)
	if keep {
		r.history = h
	}
}

// close deletes the user's session, first fetching the server's solve
// traces of a sampled user into traces when that is non-nil.
func (c *client) close(r *userRun, traces *serverTraces) {
	if r.id == "" || r.closed {
		return
	}
	r.closed = true
	path := "/v1/sessions/" + r.id
	if traces != nil && r.traceKept {
		for k, s := range r.solves {
			status, body, err := c.do(http.MethodGet, path+"/trace?iter="+strconv.Itoa(k), nil, -1, -1)
			if err != nil || status != http.StatusOK {
				continue // sampled out under load
			}
			if tr, err := schemaio.DecodeTrace(bytes.NewReader(body)); err == nil {
				traces.add(s, tr)
			}
		}
	}
	status, _, err := c.do(http.MethodDelete, path, nil, -1, -1)
	if err == nil && status != http.StatusNoContent {
		err = fmt.Errorf("delete: HTTP %d", status)
	}
	if err != nil && r.failed == nil {
		r.failed = err
	}
}

// normalizeHistory strips the operational fields (wall clock, memo
// traffic) from a history body so it compares with a replay.
func normalizeHistory(body []byte) ([]byte, error) {
	var h struct {
		Iterations []schemaio.IterationDoc `json:"iterations"`
	}
	if err := json.Unmarshal(body, &h); err != nil {
		return nil, fmt.Errorf("history body: %w", err)
	}
	return normalizeDocs(h.Iterations)
}

func normalizeDocs(docs []schemaio.IterationDoc) ([]byte, error) {
	for i := range docs {
		s := &docs[i].Solution
		s.ElapsedNS = 0
		s.CacheHits, s.CacheMisses, s.CacheEvictions = 0, 0, 0
	}
	return json.Marshal(docs)
}

// replay plays the same script untimed on an in-process engine.Session
// and returns its normalized history and the time ApplyChurn took.
func (w *serveWork) replay(r *userRun) ([]byte, float64, error) {
	u, err := decodeUniverse(w.ubytes)
	if err != nil {
		return nil, 0, err
	}
	p, err := r.u.prob.Decode()
	if err != nil {
		return nil, 0, err
	}
	e, err := engine.New(u)
	if err != nil {
		return nil, 0, err
	}
	sess := engine.NewSession(e, p)
	var applyMs float64
	for k := range r.solves {
		if k == servePatchBefore {
			muts, err := schemaio.DecodeChurnRequestBytes(r.u.patch)
			if err != nil {
				return nil, 0, err
			}
			t0 := time.Now()
			if _, err := sess.ApplyChurn(muts); err != nil {
				return nil, 0, fmt.Errorf("replay churn: %w", err)
			}
			applyMs = sinceMs(t0)
		}
		var last []int
		if l := sess.Last(); l != nil {
			last = l.Sources
		}
		if err := r.u.edit(k, last).apply(sess); err != nil {
			return nil, 0, fmt.Errorf("replay edit %d: %w", k, err)
		}
		if _, err := sess.Solve(); err != nil {
			return nil, 0, fmt.Errorf("replay solve %d: %w", k, err)
		}
	}
	docs, err := schemaio.EncodeHistory(sess.History())
	if err != nil {
		return nil, 0, err
	}
	h, err := normalizeDocs(docs)
	return h, applyMs, err
}

// serverTraces collects the shard-side solve traces of a traced phase.
type serverTraces struct {
	mu   sync.Mutex
	recs []solveRec
	trs  []*trace.Trace
}

func (t *serverTraces) add(s solveRec, tr *trace.Trace) {
	t.mu.Lock()
	t.recs = append(t.recs, s)
	t.trs = append(t.trs, tr)
	t.mu.Unlock()
}

// servePhase is one timed phase of the served workload.
type servePhase struct {
	*phase
	runs       []*userRun
	respB      []float64
	walDelta   walTotals
	solves     int
	rejections int
}

// timedPhase runs the client through users from 0 on, one request at a
// time, until the phase has lasted seconds and holds at least minOps
// solves. A user the end interrupts is finished untimed. A traced phase
// (rec non-nil) keeps the sessions of a few sampled users open for
// closePhase to fetch their solve traces from, so that it sends the same
// requests as an untraced phase. The phase's usage and WAL counters are
// read when the client stops; then one session is parked, which stays
// open for the heap reading until closePhase.
func (w *serveWork) timedPhase(seconds float64, minOps int, rec *recorder, res *result) (*servePhase, error) {
	before, err := w.walSnapshot()
	if err != nil {
		return nil, err
	}
	ph := &servePhase{phase: newPhase()}
	c := w.newClient(w.fleet.base, rec)
	defer c.http.CloseIdleConnections()
	settle()
	u0 := usageNow()
	start := time.Now()
	stop := func() bool {
		return time.Since(start).Seconds() >= seconds && ph.solves >= minOps
	}
	idx := 0
	for ; !stop(); idx++ {
		u, err := w.user(idx)
		if err != nil {
			res.problem("user script: %v", err)
			break
		}
		// The users whose solves quality_mean averages always finish
		// their scripts, so the phase's end cannot leave a gap in them.
		userStop := stop
		if u.idx*serveSolves < w.cfg.qualityOps() {
			userStop = func() bool { return false }
		}
		r := c.play(u, serveSolves, userStop, func(s solveRec) {
			ph.solves++
			ph.attempted++
			ph.addOp(s.cost)
			ph.respB = append(ph.respB, float64(s.bytes))
			ph.quality[s.key] = s.quality
		})
		r.traceKept = rec != nil && u.idx%serveTraceEvery == 0 && u.idx < serveTraceEvery*serveTraceUsers
		ph.runs = append(ph.runs, r)
		if r.id != "" {
			ph.addCreate(r.createCost)
		}
		if r.failed != nil {
			ph.attempted++
			ph.failed++
			res.problem("user %d: %v", u.idx, r.failed)
		}
		ph.rejections += r.rejected
		ph.wall = sinceMs(start) / 1e3
		c.fetchHistory(r, rec != nil)
		if !r.traceKept && r.failed == nil {
			c.close(r, nil)
		}
	}
	ph.finish(u0)
	after, err := w.walSnapshot()
	if err != nil {
		return nil, err
	}
	ph.walDelta = after.sub(before)

	// The heap reading must not depend on where in its script the
	// phase's end caught the last user (each θ a session has solved at
	// keeps its own caches), so one session is parked at a fixed point —
	// created and solved once, untimed and untraced.
	pc := w.newClient(w.fleet.base, nil)
	defer pc.http.CloseIdleConnections()
	u, err := w.user(idx)
	if err != nil {
		return nil, err
	}
	r := pc.play(u, 1, func() bool { return false }, func(solveRec) {})
	ph.runs = append(ph.runs, r)
	if r.failed != nil {
		res.problem("user %d: %v", u.idx, r.failed)
	}
	return ph, nil
}

// closePhase fetches the histories and, into traces when that is
// non-nil, the sampled users' solve traces of the sessions still open,
// and closes them.
func (w *serveWork) closePhase(ph *servePhase, traces *serverTraces) {
	c := w.newClient(w.fleet.base, nil)
	defer c.http.CloseIdleConnections()
	for _, r := range ph.runs {
		c.fetchHistory(r, traces != nil)
		c.close(r, traces)
	}
}

// walSnapshot reads the shards' WAL counters through the router's
// aggregated /metrics.
func (w *serveWork) walSnapshot() (walTotals, error) {
	shards, err := w.fleetMetrics()
	if err != nil {
		return walTotals{}, err
	}
	return sumWAL(shards)
}

func (w *serveWork) fleetMetrics() (map[string]shardMetrics, error) {
	resp, err := http.Get(w.fleet.base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("router metrics: %w", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return parseFleetMetrics(body)
}

// check replays every user's script in process and compares histories,
// then reconciles the shards' counters with their audit logs.
func (w *serveWork) check(runs []*userRun, res *result, applyMs *[]float64) {
	jobs := make(chan *userRun)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < serveReplayWorkers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range jobs {
				got, ms, err := w.replay(r)
				mu.Lock()
				switch {
				case err != nil:
					res.problem("user %d replay: %v", r.u.idx, err)
				case sha256.Sum256(got) != r.historySum:
					res.problem("user %d: served history differs from the in-process replay", r.u.idx)
				}
				if r.patched && applyMs != nil {
					*applyMs = append(*applyMs, ms)
				}
				mu.Unlock()
			}
		}()
	}
	for _, r := range runs {
		if r.failed == nil && r.fetched {
			jobs <- r
		}
	}
	close(jobs)
	wg.Wait()
}

// reconcile checks the shards' /metrics counters against their audit
// logs: every committed solve, churn batch and create left exactly one
// audit line.
func (w *serveWork) reconcile(res *result) {
	shards, err := w.fleetMetrics()
	if err != nil {
		res.problem("%v", err)
		return
	}
	for _, sh := range w.fleet.shards {
		m, ok := shards[sh.url]
		if !ok {
			res.problem("router metrics miss shard %s", sh.url)
			continue
		}
		data, err := os.ReadFile(sh.audit.Name())
		if err != nil {
			res.problem("reading audit log: %v", err)
			continue
		}
		counts, err := countAuditActions(data)
		if err != nil {
			res.problem("%v", err)
			continue
		}
		for _, c := range []struct {
			what   string
			metric int64
			action string
		}{
			{"solves", m.Solves, "solve.done"},
			{"churns", m.Churns, "churn.apply"},
			{"sessionsCreated", m.SessionsCreated, "session.create"},
		} {
			if c.metric != counts[c.action] {
				res.problem("shard %s: /metrics %s = %d but the audit log has %d %s lines", sh.url, c.what, c.metric, counts[c.action], c.action)
			}
		}
		if m.SolveErrors != 0 || m.ChurnErrors != 0 || m.QueueRejections != 0 {
			res.problem("shard %s: %d solve errors, %d churn errors, %d rejections", sh.url, m.SolveErrors, m.ChurnErrors, m.QueueRejections)
		}
	}
}

func runServe(cfg runConfig) (*result, error) {
	w, err := newServe(cfg)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(w.dir)
	w.shardOps = map[string]int{}
	res := &result{Metrics: map[string]float64{}}

	// Each build brings up a fresh fleet and creates the first session on
	// it: everything the first solve waits for. The bring-up alone takes a
	// few ms, most of it the WAL's fsyncs, and the shared disk's latency
	// doubled between sets of runs with no change to the code; the
	// create's catalog decode and engine.New put the figure on CPU work.
	// Every fleet built for timing is torn down untimed, and the phase
	// runs on a fleet of its own.
	setupUser, err := w.user(serveSetupUser)
	if err != nil {
		return nil, err
	}
	rep := 0
	var built *fleet
	build := func() error {
		rep++
		f, err := w.bringUp("fleet" + strconv.Itoa(rep))
		if err != nil {
			return err
		}
		built = f
		c := w.newClient(f.base, nil)
		defer c.http.CloseIdleConnections()
		return c.play(setupUser, 0, func() bool { return false }, func(solveRec) {}).failed
	}
	undo := func() {
		if built != nil {
			built.tearDown()
			built = nil
		}
	}
	var setup setupTimer
	if err := setup.sample(serveSetupReps, build, undo); err != nil {
		return nil, err
	}
	if w.fleet, err = w.bringUp("phase"); err != nil {
		return nil, err
	}
	defer func() { w.fleet.tearDown() }()

	// Warm-up: one user's whole script, untimed.
	warm, err := w.user(serveWarmUser)
	if err != nil {
		return nil, err
	}
	c := w.newClient(w.fleet.base, nil)
	wr := c.play(warm, serveSolves, func() bool { return false }, func(solveRec) {})
	c.fetchHistory(wr, false)
	c.close(wr, nil)
	c.http.CloseIdleConnections()
	if wr.failed != nil {
		return nil, fmt.Errorf("warm-up user: %w", wr.failed)
	}

	minOps := cfg.minOps()
	if cfg.Trace {
		minOps = cfg.minTracedOps()
	}
	plain, err := w.timedPhase(cfg.phaseSeconds(), minOps, nil, res)
	if err != nil {
		return nil, err
	}
	heap := liveHeapMB()
	w.closePhase(plain, nil)
	res.Attempted, res.Failed = plain.attempted, plain.failed
	w.check(plain.runs, res, nil)
	res.note("history replays: %d users", len(plain.runs))

	if !cfg.Trace {
		w.reconcile(res)
		if err := setup.sample(serveSetupReps, build, undo); err != nil {
			return nil, err
		}
		plain.endToEnd(cfg, setup.median(res), heap, res)
		return res, nil
	}

	rec := newRecorder()
	traces := &serverTraces{}
	w.tap.Store(rec)
	traced, err := w.timedPhase(cfg.phaseSeconds(), cfg.minTracedOps(), rec, res)
	if err != nil {
		return nil, err
	}
	w.tap.Store(nil)
	w.closePhase(traced, traces)
	res.Attempted += traced.attempted
	res.Failed += traced.failed
	var applyMs []float64
	w.check(traced.runs, res, &applyMs)
	w.reconcile(res)

	sl, eng := w.serveLayers(rec, traces, traced)
	pr := &probes{}
	if err := w.probe(traced, pr); err != nil {
		return nil, err
	}
	allocMB, gcs := plain.perOp()
	res.Metrics = layerMetrics(pr, eng, applyMs, sl, allocMB, gcs,
		overheadOf(plain.costPerOp(), traced.costPerOp()))
	res.Layers = aggregate(rec.snapshot(), len(traced.latMs))
	if err := finishSpans(cfg, rec, res); err != nil {
		return nil, err
	}
	return res, nil
}

// serveLayers derives the router, server and WAL figures of a traced
// phase and grafts the shards' solve traces under their handler spans.
func (w *serveWork) serveLayers(rec *recorder, traces *serverTraces, ph *servePhase) (*serveLayers, *engineStats) {
	spans := rec.snapshot()
	handler := map[int32]span{} // client root span -> its handler span
	for _, s := range spans {
		if s.Name == "server.handler" && s.Parent >= 0 {
			handler[s.Parent] = s
		}
	}
	dur := func(s span) float64 { return float64(s.End-s.Start) / 1e6 }
	sl := &serveLayers{shardOps: w.shardOps, rejections: ph.rejections, respBytes: ph.respB, wal: ph.walDelta, ops: ph.solves}
	for _, r := range ph.runs {
		if h, ok := handler[r.create]; ok && r.id != "" {
			sl.proxyCreateMs = append(sl.proxyCreateMs, dur(spans[r.create])-dur(h))
			sl.handlerCreateMs = append(sl.handlerCreateMs, dur(h))
		}
		for _, s := range r.solves {
			h, ok := handler[s.root]
			if !ok {
				continue
			}
			sl.proxySolveMs = append(sl.proxySolveMs, dur(spans[s.root])-dur(h))
			sl.handlerSolveMs = append(sl.handlerSolveMs, dur(h))
			sl.waitMs = append(sl.waitMs, dur(h)-float64(s.elapsedNS)/1e6)
		}
	}
	eng := &engineStats{}
	for i, tr := range traces.trs {
		eng.add(tr)
		h, ok := handler[traces.recs[i].root]
		if !ok || len(tr.Spans) == 0 {
			continue
		}
		// The solve's position inside the handler is not observable from
		// outside; it is placed to end with the handler, its duration exact.
		rec.graft(traces.recs[i].op, h.ID, h.End-tr.Spans[0].Dur, tr)
	}
	return sl, eng
}

// probe replays the served workload's universe and the sets its first
// solves chose (before the PATCH changed the universe).
func (w *serveWork) probe(ph *servePhase, pr *probes) error {
	if err := probeDecodeAndNew(w.ubytes, 5, pr); err != nil {
		return err
	}
	u, err := decodeUniverse(w.ubytes)
	if err != nil {
		return err
	}
	if err := probeVocabulary(u, 0.65, 5, pr); err != nil {
		return err
	}
	var cases []matchCase
	var sols []*engine.Solution
	for _, r := range sampleEvery(ph.runs, 10) {
		var docs []schemaio.IterationDoc
		if r.history == nil || json.Unmarshal(r.history, &docs) != nil {
			continue
		}
		for k := 0; k < len(docs) && k < servePatchBefore; k++ {
			it, err := docs[k].Decode()
			if err != nil {
				return fmt.Errorf("decoding history: %w", err)
			}
			cases = append(cases, caseOf(it.Problem, it.Solution))
			sols = append(sols, it.Solution)
		}
	}
	if err := probeSolver(u, cases, pr); err != nil {
		return err
	}
	return probeCodecs(sols, pr)
}
