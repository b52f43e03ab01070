// Package server is the multi-tenant µBE session service: the engine's
// interactive feedback loop (solve → inspect → pin/reweight/tighten →
// re-solve, §1/§6 of the paper) exposed over HTTP so many users can run
// concurrent exploration sessions against one process.
//
// The API is deliberately small and stdlib-only (net/http + encoding/json):
//
//	POST   /v1/sessions                  create a session (universe, schemas text, or inline problem)
//	GET    /v1/sessions                  list session IDs
//	GET    /v1/sessions/{id}             session info + current problem
//	DELETE /v1/sessions/{id}             delete a session
//	POST   /v1/sessions/{id}/solve       apply problem edits (all-or-nothing) and solve
//	PATCH  /v1/sessions/{id}/universe    apply a universe-mutation (churn) batch, all-or-nothing
//	GET    /v1/sessions/{id}/history     full iteration history (schemaio docs)
//	GET    /v1/sessions/{id}/history/{k} one iteration
//	GET    /v1/sessions/{id}/diff        diff two iterations (?from=&to=, default last two)
//	GET    /v1/sessions/{id}/events      SSE stream of solver events (queued/start/progress/done/error/evicted)
//	GET    /v1/sessions/{id}/trace       latest solve's span trace, JSONL (?iter=k for a retained iteration)
//	GET    /healthz                      liveness
//	GET    /metrics                      operational counters, JSON
//
// Concurrency model: solves are admitted into a bounded queue (overflow →
// 429 + Retry-After) feeding a fixed worker pool; same-session solves are
// serialized in admission order (see queue.go), which both protects the
// lock-free engine.Session and keeps concurrent clients deterministic.
// Determinism contract: the solver never sees a clock, a goroutine ID, or
// an unordered map walk — every solve is a pure function of (problem,
// seed), so a session's history depends only on the order requests were
// admitted, never on server load.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ube/internal/auditlog"
	"ube/internal/engine"
	"ube/internal/faultinject"
	"ube/internal/model"
	"ube/internal/schemaio"
	"ube/internal/spec"
	"ube/internal/wal"
)

// statusClientClosedRequest reports a solve whose client vanished before
// the result existed (nginx's 499 convention). Nobody receives these
// bodies; the code exists for the audit trail and tests.
const statusClientClosedRequest = 499

// Config sizes the service.
type Config struct {
	// Workers is the solve worker pool size. Default 2.
	Workers int
	// QueueDepth bounds solves admitted but not yet executing, across
	// all sessions; past it clients get 429 + Retry-After. Default 16.
	QueueDepth int
	// MaxSessions bounds live sessions. Default 256.
	MaxSessions int
	// SessionTTL evicts sessions idle that long; 0 disables eviction.
	SessionTTL time.Duration
	// AuditWriter receives the append-only JSONL audit log of every
	// session mutation; nil disables auditing.
	AuditWriter io.Writer
	// SolveTimeout bounds each solve's execution; past it the solve is
	// cancelled and the client gets 504 + Retry-After. 0 disables the
	// deadline. The bound covers stalled workers too: a worker is never
	// lost to one job for longer than SolveTimeout.
	SolveTimeout time.Duration
	// RetryAfterSeconds is the backoff guidance sent in Retry-After on
	// every 429/503/504. Default 2.
	RetryAfterSeconds int
	// FaultInjector, when non-nil, arms the named fault-injection
	// points threaded through the service and its engines (see
	// internal/faultinject and DESIGN.md §10). Chaos testing only; nil
	// in production.
	FaultInjector *faultinject.Injector
	// WALDir, when set, makes sessions durable: every create, committed
	// solve, delete and evict is written ahead to a segment log there,
	// and Open replays whatever the log holds before serving (see
	// durability.go and DESIGN.md §14). Empty disables durability.
	WALDir string
	// WALFsync makes every WAL group commit fsync before acknowledging.
	// Off, acknowledged records still survive a process crash (they are
	// written through to the OS), just not an OS crash.
	WALFsync bool
	// WALSegmentBytes overrides the WAL's rotation threshold (default
	// 16 MiB); rotation snapshots every live session into a fresh
	// segment and deletes the old ones.
	WALSegmentBytes int64
	// SnapshotEvery writes a per-session snapshot record after every
	// this-many solves of a session, bounding how much of its history
	// recovery must re-solve. Default 16; ≤0 gets the default, and
	// rotation snapshots happen regardless.
	SnapshotEvery int
	// AuditChain, when non-nil, mirrors every audit line into a
	// tamper-evident hash chain (internal/auditlog) alongside the plain
	// AuditWriter JSONL. Callers own sealing on their own schedule;
	// Shutdown seals the final partial batch.
	AuditChain *auditlog.Writer
}

func (c *Config) withDefaults() Config {
	cfg := *c
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 16
	}
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = 256
	}
	if cfg.RetryAfterSeconds <= 0 {
		cfg.RetryAfterSeconds = 2
	}
	if cfg.SnapshotEvery <= 0 {
		cfg.SnapshotEvery = 16
	}
	return cfg
}

// Server is the µBE session service. Create with New, mount Handler()
// on an http.Server, and call Shutdown to drain.
type Server struct {
	cfg     Config
	metrics *metrics
	audit   *auditLog
	mux     *http.ServeMux
	inj     *faultinject.Injector

	mu       sync.Mutex
	sessions map[string]*session
	draining bool
	nextID   atomic.Int64

	wal       *wal.Log
	recovered *recoveryDoc

	work      chan *session
	jobsWG    sync.WaitGroup
	workersWG sync.WaitGroup
	janitorWG sync.WaitGroup
	drainCh   chan struct{}
	drainOnce sync.Once
	stopOnce  sync.Once
	stopErr   error
}

// New builds a server and starts its worker pool (and TTL janitor when
// configured). Callers own its lifecycle: call Shutdown when done.
//
// New delegates to Open and panics on error; construction can only fail
// when durability (Config.WALDir) is configured, so durable callers
// should use Open directly and handle the error.
func New(cfg Config) *Server {
	s, err := Open(cfg)
	if err != nil {
		panic("server: " + err.Error())
	}
	return s
}

// Open builds a server, recovers durable state when Config.WALDir is
// set (see durability.go), and starts the worker pool and TTL janitor.
// Recovery completes before any worker or janitor goroutine starts, so
// replayed sessions can never race live traffic or eviction.
func Open(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		metrics:  &metrics{},
		audit:    newAuditLog(cfg.AuditWriter, cfg.AuditChain),
		inj:      cfg.FaultInjector,
		sessions: make(map[string]*session),
		work:     make(chan *session, cfg.QueueDepth),
		drainCh:  make(chan struct{}),
	}
	s.audit.arm(s.inj, &s.metrics.auditDropped)
	s.routes()
	if cfg.WALDir != "" {
		if err := s.openDurable(); err != nil {
			return nil, err
		}
	}
	s.workersWG.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	if cfg.SessionTTL > 0 {
		s.janitorWG.Add(1)
		go s.janitor(cfg.SessionTTL)
	}
	return s, nil
}

// Handler returns the HTTP surface.
func (s *Server) Handler() http.Handler { return s.mux }

// ServeHTTP makes the server itself mountable.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Metrics returns a point-in-time counters snapshot (also served by
// /metrics); exported for in-process embedders like ube-load.
func (s *Server) Metrics() any { return s.metricsSnapshot() }

// BeginDrain stops admitting sessions and solves and disconnects event
// streams; already-admitted solves keep running. Idempotent.
func (s *Server) BeginDrain() {
	s.drainOnce.Do(func() {
		s.mu.Lock()
		s.draining = true
		s.mu.Unlock()
		close(s.drainCh)
		s.audit.record("", "server.drain", "", nil)
	})
}

// Shutdown drains, waits (bounded by ctx) for every admitted solve to
// finish, then stops the worker pool. After a clean Shutdown no server
// goroutine remains. Shutdown may be called again: a call whose ctx
// expired before the solves finished can be retried, and a call after a
// completed Shutdown returns its result.
func (s *Server) Shutdown(ctx context.Context) error {
	s.BeginDrain()
	done := make(chan struct{})
	go func() {
		s.jobsWG.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return ctx.Err()
	}
	s.stopOnce.Do(func() {
		// Safe: draining since BeginDrain, and jobsWG.Wait proved every
		// admitted job — hence every pending work-token send — completed.
		close(s.work)
		s.workersWG.Wait()
		s.janitorWG.Wait()
		// Workers are gone, so nothing appends anymore: flush and close
		// the WAL, and seal the audit chain's final partial batch.
		if s.wal != nil {
			if s.stopErr = s.wal.Close(); s.stopErr != nil {
				return
			}
		}
		s.audit.seal()
	})
	return s.stopErr
}

func (s *Server) routes() {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("POST /v1/sessions", s.handleCreateSession)
	mux.HandleFunc("GET /v1/sessions", s.handleListSessions)
	mux.HandleFunc("GET /v1/sessions/{id}", s.handleGetSession)
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleDeleteSession)
	mux.HandleFunc("POST /v1/sessions/{id}/solve", s.handleSolve)
	mux.HandleFunc("PATCH /v1/sessions/{id}/universe", s.handleChurn)
	mux.HandleFunc("GET /v1/sessions/{id}/history", s.handleHistory)
	mux.HandleFunc("GET /v1/sessions/{id}/history/{k}", s.handleHistoryAt)
	mux.HandleFunc("GET /v1/sessions/{id}/diff", s.handleDiff)
	mux.HandleFunc("GET /v1/sessions/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/sessions/{id}/trace", s.handleTrace)
	s.mux = mux
}

// errorDoc is every error response body.
type errorDoc struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// wantsBinary reports whether the request opted into the compact binary
// frames (internal/schemaio binary codec) via content negotiation.
// JSON stays the default: only an explicit Accept of the binary media
// type switches the response encoding, and only on the hot solve and
// history paths. Errors are always JSON.
func wantsBinary(r *http.Request) bool {
	for _, v := range r.Header.Values("Accept") {
		for _, part := range strings.Split(v, ",") {
			mt := strings.TrimSpace(part)
			if i := strings.IndexByte(mt, ';'); i >= 0 {
				mt = strings.TrimSpace(mt[:i])
			}
			if strings.EqualFold(mt, schemaio.BinaryContentType) {
				return true
			}
		}
	}
	return false
}

func writeBinary(w http.ResponseWriter, status int, frame []byte) {
	w.Header().Set("Content-Type", schemaio.BinaryContentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(frame)))
	w.WriteHeader(status)
	_, _ = w.Write(frame)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorDoc{Error: fmt.Sprintf(format, args...)})
}

// readBody drains a bounded request body so the raw bytes can both be
// decoded and written ahead to the WAL verbatim.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	data, err := schemaio.ReadBody(r.Body, r.ContentLength, schemaio.MaxBodyBytes)
	if errors.Is(err, schemaio.ErrBodyTooLarge) {
		writeError(w, http.StatusRequestEntityTooLarge, "request body over %d bytes", schemaio.MaxBodyBytes)
		return nil, false
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading request body: %v", err)
		return nil, false
	}
	return data, true
}

// decodeBody strictly decodes an already-read request body into v —
// unknown fields and trailing content are rejected, an empty body means
// all defaults — and returns the bytes to write ahead: the body as it
// came, or "{}" for an empty one. This decode is the body's only parse
// on the shard. The WAL needs no canonical copy: its record encoding
// compacts embedded bytes (json.RawMessage), so a pretty-printed body
// and its compact form log identically.
func decodeBody(w http.ResponseWriter, raw []byte, v any) ([]byte, bool) {
	if len(bytes.TrimLeft(raw, " \t\r\n")) == 0 {
		return []byte("{}"), true
	}
	if err := schemaio.DecodeStrict(raw, v); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return nil, false
	}
	return raw, true
}

// healthDoc is the /healthz body. Degraded reports a live but impaired
// service: audit lines were lost to sink failures, or WAL appends
// failed — state a load balancer keeps routing to but an operator must
// see.
type healthDoc struct {
	Status       string `json:"status"`
	Degraded     bool   `json:"degraded,omitempty"`
	AuditDropped int64  `json:"auditLinesDropped,omitempty"`
	WALErrors    int64  `json:"walAppendErrors,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	doc := healthDoc{Status: "ok"}
	doc.AuditDropped = s.metrics.auditDropped.Load()
	doc.WALErrors = s.metrics.walAppendErrors.Load()
	doc.Degraded = doc.AuditDropped > 0 || doc.WALErrors > 0
	if draining {
		doc.Status = "draining"
		writeJSON(w, http.StatusServiceUnavailable, doc)
		return
	}
	writeJSON(w, http.StatusOK, doc)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.metricsSnapshot())
}

// createSessionRequest starts a session from exactly one universe form:
// an inline universe document (ube-gen output), or source descriptions
// in the paper's Figure 1 text format. The optional problem overrides
// the paper-default starting problem.
type createSessionRequest struct {
	Universe *model.Universe      `json:"universe,omitempty"`
	Schemas  string               `json:"schemas,omitempty"`
	Problem  *schemaio.ProblemDoc `json:"problem,omitempty"`
	// ID, when set, names the session instead of letting the server
	// mint an ID. Routers place a session under a key they chose on the
	// hash ring — the client's body id, or one they mint and send in
	// the SessionIDHeader — so a stateless front can route every later
	// request for the session without a lookup table. Validated by
	// validateSessionID; duplicates get 409.
	ID string `json:"id,omitempty"`
}

// sessionIDPattern admits client-supplied session IDs: short, URL-safe,
// no separators the route patterns could misparse.
var sessionIDPattern = regexp.MustCompile(`^[A-Za-z0-9._-]{1,64}$`)

// reservedIDPattern matches the server's own minted IDs ("s" + counter).
// Client-supplied IDs may not use this shape: WAL recovery resumes the
// mint counter by parsing it, so a client squatting on "s7" could
// collide with a future minted session after a restart.
var reservedIDPattern = regexp.MustCompile(`^s[0-9]+$`)

// validateSessionID vets a client-supplied session ID.
func validateSessionID(id string) error {
	if !sessionIDPattern.MatchString(id) {
		return fmt.Errorf("session id %q must match %s", id, sessionIDPattern)
	}
	if reservedIDPattern.MatchString(id) {
		return fmt.Errorf("session id %q uses the server-minted shape s<n>, which is reserved", id)
	}
	return nil
}

// buildSession constructs an unregistered session from a create
// request: the universe (inline or parsed from schemas text), the
// engine, the starting problem, and the handler-visible mirrors. The
// caller assigns the ID and registers it. Shared by the create handler
// and WAL replay, so a recovered session is built by exactly the code
// that built it live.
func (s *Server) buildSession(req *createSessionRequest) (*session, error) {
	var u *model.Universe
	switch {
	case req.Universe != nil && req.Schemas != "":
		return nil, errors.New("give either universe or schemas, not both")
	case req.Universe != nil:
		u = req.Universe
	case req.Schemas != "":
		parsed, err := schemaio.Parse(strings.NewReader(req.Schemas))
		if err != nil {
			return nil, fmt.Errorf("parsing schemas: %v", err)
		}
		u = parsed
	default:
		return nil, errors.New("need universe or schemas")
	}
	if err := u.Validate(); err != nil {
		return nil, fmt.Errorf("invalid universe: %v", err)
	}

	var prob engine.Problem
	if req.Problem != nil {
		p, err := req.Problem.Decode()
		if err != nil {
			return nil, fmt.Errorf("invalid problem: %v", err)
		}
		prob = p
	} else {
		prob = defaultProblemFor(u)
	}

	eng, err := engine.New(u, engine.WithFaultInjector(s.inj))
	if err != nil {
		return nil, fmt.Errorf("building engine: %v", err)
	}

	sn := &session{
		hub:     newHub(s.inj),
		eng:     eng,
		sess:    engine.NewSession(eng, prob),
		sources: u.N(),
	}
	//ube:nondeterministic-ok creation time is TTL bookkeeping, not solver input
	sn.created = time.Now()
	sn.lastUsed = sn.created
	if err := sn.refreshProblemDoc(); err != nil {
		return nil, fmt.Errorf("problem has no JSON form: %v", err)
	}
	return sn, nil
}

func (s *Server) handleCreateSession(w http.ResponseWriter, r *http.Request) {
	raw, ok := readBody(w, r)
	if !ok {
		return
	}
	var req createSessionRequest
	raw, ok = decodeBody(w, raw, &req)
	if !ok {
		return
	}
	if id := r.Header.Get(schemaio.SessionIDHeader); id != "" {
		if req.ID != "" && req.ID != id {
			writeError(w, http.StatusBadRequest, "body id %q disagrees with the %s header %q", req.ID, schemaio.SessionIDHeader, id)
			return
		}
		req.ID = id
	}
	if req.ID != "" {
		if err := validateSessionID(req.ID); err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	sn, err := s.buildSession(&req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	sn.createRaw = raw

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	if len(s.sessions) >= s.cfg.MaxSessions {
		s.mu.Unlock()
		w.Header().Set("Retry-After", s.retryAfter())
		writeError(w, http.StatusTooManyRequests, "session limit (%d) reached", s.cfg.MaxSessions)
		return
	}
	if req.ID != "" {
		if _, dup := s.sessions[req.ID]; dup {
			s.mu.Unlock()
			writeError(w, http.StatusConflict, "session %q already exists", req.ID)
			return
		}
		sn.id = req.ID
	} else {
		sn.id = "s" + strconv.FormatInt(s.nextID.Add(1), 10)
	}
	s.sessions[sn.id] = sn
	s.mu.Unlock()

	// Write-ahead before acknowledging: a session the client was told
	// about must exist again after a crash. On failure the registration
	// is undone — the service never acknowledges more than it persisted.
	if err := s.walAppend(schemaio.WALTypeCreate, sn.id, raw); err != nil {
		s.mu.Lock()
		delete(s.sessions, sn.id)
		s.mu.Unlock()
		sn.mu.Lock()
		sn.closed = true
		sn.mu.Unlock()
		sn.hub.close()
		w.Header().Set("Retry-After", s.retryAfter())
		writeError(w, http.StatusServiceUnavailable, "session not durable: %v", err)
		return
	}

	s.metrics.sessionsCreated.Add(1)
	s.metrics.sessionsActive.Add(1)
	s.audit.record(sn.id, "session.create", r.RemoteAddr, map[string]any{"sources": sn.eng.Universe().N()})
	writeJSON(w, http.StatusCreated, sn.info())
}

func (s *Server) handleListSessions(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string][]string{"sessions": s.listSessionIDs()})
}

func (s *Server) handleGetSession(w http.ResponseWriter, r *http.Request) {
	sn, ok := s.lookupSession(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such session")
		return
	}
	writeJSON(w, http.StatusOK, sn.info())
}

func (s *Server) handleDeleteSession(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	_, ok := s.sessions[id]
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, "no such session")
		return
	}
	s.removeSession(id, "session.delete")
	s.audit.record(id, "session.delete.by", r.RemoteAddr, nil)
	w.WriteHeader(http.StatusNoContent)
}

// solveRequest is the POST .../solve body: a batch of problem edits
// (applied all-or-nothing before the solve; see applyEdits for the
// order) — all optional, so an empty body means "solve again as-is".
type solveRequest struct {
	MaxSources     *int               `json:"maxSources,omitempty"`
	Theta          *float64           `json:"theta,omitempty"`
	Beta           *int               `json:"beta,omitempty"`
	Optimizer      string             `json:"optimizer,omitempty"`
	Workers        *int               `json:"workers,omitempty"`
	MaxEvals       *int               `json:"maxEvals,omitempty"`
	Weights        map[string]float64 `json:"weights,omitempty"`
	SetWeights     map[string]float64 `json:"setWeights,omitempty"`
	PinSources     []int              `json:"pinSources,omitempty"`
	DropSourcePins []int              `json:"dropSourcePins,omitempty"`
	ExcludeSources []int              `json:"excludeSources,omitempty"`
	DropExclusions []int              `json:"dropExclusions,omitempty"`
	PinGAs         []int              `json:"pinGAs,omitempty"`
	UnpinGAs       []int              `json:"unpinGAs,omitempty"`
}

// solveResponse is the successful solve body: the rendered (name-resolved)
// solution for humans, the exact round-trip doc for machines, and the
// diff against the previous iteration when one exists.
type solveResponse struct {
	Session   string                `json:"session"`
	Iteration int                   `json:"iteration"`
	Rendered  *spec.SolutionDoc     `json:"rendered,omitempty"`
	Solution  *schemaio.SolutionDoc `json:"solution,omitempty"`
	Diff      *engine.Diff          `json:"diff,omitempty"`
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	sn, ok := s.lookupSession(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such session")
		return
	}
	raw, ok := readBody(w, r)
	if !ok {
		return
	}
	req := &solveRequest{}
	raw, ok = decodeBody(w, raw, req)
	if !ok {
		return
	}
	job := &solveJob{
		req:    req,
		raw:    raw,
		ctx:    r.Context(),
		remote: r.RemoteAddr,
		done:   make(chan jobResult, 1),
	}
	switch err := s.enqueue(sn, job); {
	case errors.Is(err, errQueueFull):
		w.Header().Set("Retry-After", s.retryAfter())
		s.audit.record(sn.id, "solve.reject", r.RemoteAddr, map[string]any{"queueDepth": s.cfg.QueueDepth})
		writeError(w, http.StatusTooManyRequests, "solve queue is full (depth %d)", s.cfg.QueueDepth)
		return
	case errors.Is(err, errDraining):
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	case errors.Is(err, errSessionGone):
		writeError(w, http.StatusGone, "session was deleted")
		return
	}
	s.audit.record(sn.id, "solve.enqueue", r.RemoteAddr, nil)
	select {
	case res := <-job.done:
		if res.retryAfter {
			w.Header().Set("Retry-After", s.retryAfter())
		}
		if resp, ok := res.body.(*solveResponse); ok && res.status == http.StatusOK && wantsBinary(r) && resp.Solution != nil {
			frame, err := schemaio.EncodeBinarySolveResult(&schemaio.SolveResultDoc{
				Session:   resp.Session,
				Iteration: resp.Iteration,
				Solution:  *resp.Solution,
			})
			if err == nil {
				writeBinary(w, http.StatusOK, frame)
				return
			}
			// Unencodable result (can't happen for JSON-admitted
			// problems): fall back to the JSON reference form.
		}
		writeJSON(w, res.status, res.body)
	case <-r.Context().Done():
		// Client gone; the worker will observe the dead context and
		// discard the job (or its result) without us.
	}
}

// retryAfter renders the configured backoff guidance for Retry-After
// headers on 429/503/504 responses.
func (s *Server) retryAfter() string {
	return strconv.Itoa(s.cfg.RetryAfterSeconds)
}

func (s *Server) handleHistory(w http.ResponseWriter, r *http.Request) {
	sn, ok := s.lookupSession(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such session")
		return
	}
	sn.mu.Lock()
	docs := sn.historyDocs // append-only; shared read of the prefix is safe
	sn.mu.Unlock()
	if wantsBinary(r) {
		frame, err := schemaio.EncodeBinaryHistory(docs)
		if err == nil {
			writeBinary(w, http.StatusOK, frame)
			return
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"iterations": docs})
}

func (s *Server) handleHistoryAt(w http.ResponseWriter, r *http.Request) {
	sn, ok := s.lookupSession(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such session")
		return
	}
	k, err := strconv.Atoi(r.PathValue("k"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad iteration index %q", r.PathValue("k"))
		return
	}
	sn.mu.Lock()
	docs := sn.historyDocs
	sn.mu.Unlock()
	if k < 0 || k >= len(docs) {
		writeError(w, http.StatusNotFound, "iteration %d out of range [0,%d)", k, len(docs))
		return
	}
	writeJSON(w, http.StatusOK, docs[k])
}

func (s *Server) handleDiff(w http.ResponseWriter, r *http.Request) {
	sn, ok := s.lookupSession(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such session")
		return
	}
	sn.mu.Lock()
	sols := sn.solutions
	sn.mu.Unlock()
	if len(sols) < 2 {
		writeError(w, http.StatusConflict, "need at least two iterations to diff (have %d)", len(sols))
		return
	}
	from, to := len(sols)-2, len(sols)-1
	var err error
	if v := r.URL.Query().Get("from"); v != "" {
		if from, err = strconv.Atoi(v); err != nil {
			writeError(w, http.StatusBadRequest, "bad from index %q", v)
			return
		}
	}
	if v := r.URL.Query().Get("to"); v != "" {
		if to, err = strconv.Atoi(v); err != nil {
			writeError(w, http.StatusBadRequest, "bad to index %q", v)
			return
		}
	}
	if from < 0 || from >= len(sols) || to < 0 || to >= len(sols) {
		writeError(w, http.StatusBadRequest, "diff indices (%d,%d) out of range [0,%d)", from, to, len(sols))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"from": from,
		"to":   to,
		"diff": engine.DiffSolutions(sols[from], sols[to]),
	})
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	sn, ok := s.lookupSession(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such session")
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	ch, ok := sn.hub.subscribe()
	if !ok {
		writeError(w, http.StatusGone, "session was deleted")
		return
	}
	defer sn.hub.unsubscribe(ch)

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	_, _ = io.WriteString(w, ": connected\n\n")
	fl.Flush()

	heartbeat := time.NewTicker(15 * time.Second)
	defer heartbeat.Stop()
	for {
		select {
		case frame, open := <-ch:
			if !open {
				return // session deleted or evicted
			}
			if _, err := w.Write(frame); err != nil {
				return
			}
			fl.Flush()
		case <-heartbeat.C:
			if _, err := io.WriteString(w, ": keepalive\n\n"); err != nil {
				return
			}
			fl.Flush()
		case <-r.Context().Done():
			return
		case <-s.drainCh:
			return
		}
	}
}

// defaultProblemFor adapts the paper-default problem to a universe: m is
// capped by the universe size, and the mttf characteristic QEF is dropped
// (weight redistributed) when no source defines mttf.
func defaultProblemFor(u *model.Universe) engine.Problem {
	p := engine.DefaultProblem()
	if p.MaxSources > u.N() {
		p.MaxSources = u.N()
	}
	hasMTTF := false
	for i := 0; i < u.N(); i++ {
		if _, ok := u.Source(i).Characteristic("mttf"); ok {
			hasMTTF = true
			break
		}
	}
	if !hasMTTF {
		wMTTF := p.Weights["mttf"]
		delete(p.Weights, "mttf")
		delete(p.Characteristics, "mttf")
		rest := 1 - wMTTF
		//ube:nondeterministic-ok each key rescales independently; order cannot matter
		for k, v := range p.Weights {
			p.Weights[k] = v / rest
		}
	}
	return p
}
