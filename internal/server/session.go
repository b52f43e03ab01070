package server

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"ube/internal/engine"
	"ube/internal/faultinject"
	"ube/internal/schemaio"
)

// session is one tenant's live exploration loop plus the server-side
// bookkeeping around it.
//
// Concurrency contract: the wrapped engine.Session is touched ONLY from
// worker context, and the admission queue guarantees at most one worker
// runs a given session's jobs at a time (see queue.go), so the engine
// session needs no locking at all. Handlers never read it; they read the
// document mirrors below, which the worker refreshes under mu after every
// mutation. That keeps GET /history and friends responsive while a solve
// is running instead of blocking behind it.
type session struct {
	id      string
	hub     *hub
	eng     *engine.Engine
	sess    *engine.Session // worker-only after the create handler returns
	created time.Time
	// createRaw is the create-request bytes as the handler decoded them,
	// immutable once set; snapshots embed them (compacted by the record
	// encoding) so recovery can rebuild the engine from the same input
	// the live create handler saw.
	createRaw []byte

	mu        sync.Mutex
	lastUsed  time.Time
	pending   []*solveJob // admitted, waiting their turn, FIFO
	scheduled bool        // a work token for this session is live
	closed    bool        // deleted or evicted: no new solves

	// Handler-visible mirrors of the engine session, refreshed by the
	// worker after each mutation.
	problemDoc  *schemaio.ProblemDoc
	historyDocs []schemaio.IterationDoc
	solutions   []*engine.Solution // immutable once appended; for diffs
	traces      []storedTrace      // ring of the last traced solves; see trace.go
	// churnDocs mirrors every committed universe-mutation batch in
	// order, each tagged with the solve count it landed after; snapshots
	// embed them so recovery can replay the universe's whole lifecycle.
	churnDocs []schemaio.SnapshotChurnDoc
	// sources mirrors the universe's size for handlers: the engine's
	// universe is worker-only once churn can mutate it.
	sources int
}

// touch marks the session used now, for TTL accounting.
func (sn *session) touch() {
	sn.mu.Lock()
	//ube:nondeterministic-ok TTL bookkeeping; never observable in solve results
	sn.lastUsed = time.Now()
	sn.mu.Unlock()
}

// refreshProblemDoc re-mirrors the current problem. Worker/create-handler
// context only (reads the engine session).
func (sn *session) refreshProblemDoc() error {
	p := sn.sess.Problem()
	p.Progress = nil
	doc, err := schemaio.EncodeProblem(&p)
	if err != nil {
		return err
	}
	sn.mu.Lock()
	sn.problemDoc = doc
	sn.mu.Unlock()
	return nil
}

// appendIterationDoc mirrors the just-solved iteration. Worker context
// only.
func (sn *session) appendIterationDoc() error {
	hist := sn.sess.History()
	it := &hist[len(hist)-1]
	doc, err := schemaio.EncodeIteration(it)
	if err != nil {
		return err
	}
	sn.mu.Lock()
	sn.historyDocs = append(sn.historyDocs, *doc)
	sn.solutions = append(sn.solutions, it.Solution)
	sn.mu.Unlock()
	return nil
}

// dropLastIteration removes the newest mirrored iteration — the undo
// half of a solve whose durability commit failed. Worker context only.
func (sn *session) dropLastIteration() {
	sn.mu.Lock()
	if n := len(sn.historyDocs); n > 0 {
		sn.historyDocs = sn.historyDocs[:n-1]
	}
	if n := len(sn.solutions); n > 0 {
		sn.solutions = sn.solutions[:n-1]
	}
	sn.mu.Unlock()
}

// snapshotDoc renders the session's durable snapshot from the
// handler-visible mirrors alone, so it is safe from any goroutine —
// including the WAL flusher during rotation — without touching the
// worker-only engine session.
func (sn *session) snapshotDoc() (*schemaio.SessionSnapshotDoc, error) {
	sn.mu.Lock()
	defer sn.mu.Unlock()
	if sn.problemDoc == nil {
		return nil, fmt.Errorf("session %s has no problem mirror", sn.id)
	}
	if len(sn.createRaw) == 0 {
		return nil, fmt.Errorf("session %s has no create request", sn.id)
	}
	return &schemaio.SessionSnapshotDoc{
		ID:      sn.id,
		Create:  sn.createRaw,
		Problem: sn.problemDoc,
		History: sn.historyDocs[:len(sn.historyDocs):len(sn.historyDocs)],
		Solves:  len(sn.historyDocs),
		Churn:   sn.churnDocs[:len(sn.churnDocs):len(sn.churnDocs)],
	}, nil
}

// sessionInfo is the GET /v1/sessions/{id} (and create) response body.
type sessionInfo struct {
	ID            string               `json:"id"`
	Sources       int                  `json:"sources"`
	Iterations    int                  `json:"iterations"`
	PendingSolves int                  `json:"pendingSolves"`
	CreatedAt     string               `json:"createdAt"`
	Problem       *schemaio.ProblemDoc `json:"problem"`
}

func (sn *session) info() *sessionInfo {
	sn.mu.Lock()
	defer sn.mu.Unlock()
	return &sessionInfo{
		ID:            sn.id,
		Sources:       sn.sources,
		Iterations:    len(sn.historyDocs),
		PendingSolves: len(sn.pending),
		CreatedAt:     sn.created.UTC().Format(time.RFC3339Nano),
		Problem:       sn.problemDoc,
	}
}

// lookupSession returns a live session by ID, touching it for TTL.
func (s *Server) lookupSession(id string) (*session, bool) {
	s.mu.Lock()
	sn, ok := s.sessions[id]
	s.mu.Unlock()
	if !ok {
		return nil, false
	}
	sn.touch()
	return sn, true
}

// listSessionIDs returns all live session IDs, ascending.
func (s *Server) listSessionIDs() []string {
	s.mu.Lock()
	ids := make([]string, 0, len(s.sessions))
	for id := range s.sessions {
		ids = append(ids, id)
	}
	s.mu.Unlock()
	sort.Strings(ids)
	return ids
}

// removeSession unregisters a session (client delete or eviction) and
// closes its event hub. Queued solves still drain: the worker holds its
// own pointer, and closed=true stops new admissions.
func (s *Server) removeSession(id, action string) bool {
	s.mu.Lock()
	sn, ok := s.sessions[id]
	if ok {
		delete(s.sessions, id)
	}
	s.mu.Unlock()
	if !ok {
		return false
	}
	sn.mu.Lock()
	sn.closed = true
	sn.mu.Unlock()
	s.metrics.sessionsActive.Add(-1)
	if action == "session.evict" {
		s.metrics.sessionsEvicted.Add(1)
		sn.hub.publish("evicted", map[string]string{"session": id})
	}
	sn.hub.close()
	// The removal must survive a restart too, or recovery resurrects a
	// session the client was told is gone. The action strings are the
	// WAL's own lifecycle vocabulary. Best-effort: the session is
	// already unregistered, so a failed append only risks resurrection,
	// which recovery tolerates; the failure is still counted.
	_ = s.walAppend(action, id, nil)
	s.audit.record(id, action, "", nil)
	return true
}

// janitor evicts sessions idle past the TTL. Sessions with queued or
// running work are never evicted, however stale.
func (s *Server) janitor(ttl time.Duration) {
	defer s.janitorWG.Done()
	interval := ttl / 4
	if interval < 50*time.Millisecond {
		interval = 50 * time.Millisecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-s.drainCh:
			return
		case <-ticker.C:
		}
		//ube:nondeterministic-ok TTL comparison against the wall clock
		cutoff := time.Now().Add(-ttl)
		if s.inj.Fire(faultinject.JanitorEvict) != nil {
			// Injected forced sweep: every idle session reads as expired.
			// Sessions with queued or running work stay protected — that
			// safety condition is exactly what the fault exercises.
			//ube:nondeterministic-ok forced-sweep cutoff is eviction policy, not solver input
			cutoff = time.Now().Add(ttl)
		}
		for _, id := range s.listSessionIDs() {
			s.mu.Lock()
			sn, ok := s.sessions[id]
			s.mu.Unlock()
			if !ok {
				continue
			}
			sn.mu.Lock()
			idle := sn.lastUsed.Before(cutoff) && len(sn.pending) == 0 && !sn.scheduled
			sn.mu.Unlock()
			if idle {
				s.removeSession(id, "session.evict")
			}
		}
	}
}
