package server

// Universe mutation (churn) over HTTP: PATCH /v1/sessions/{id}/universe
// applies a batch of source additions, removals and metadata updates to
// a session's universe while the session keeps solving. Churn jobs ride
// the same per-session FIFO and work-token scheme as solves (queue.go),
// so a batch serializes against solves in admission order and the
// worker-only engine session still needs no locks.
//
// Durability ordering is the reverse of solves. A solve is applied first
// and logged after, with a full undo when the log refuses — possible
// because a solve's effects are an append the service can pop. Churn has
// no cheap inverse, so the job validates first (engine admissibility
// plus the session's pinned-source refusals), writes the WAL record,
// and only then applies — a batch that validated is guaranteed to
// apply, because planning is pure and the worker owns the session until
// the apply lands (engine.Session.CheckChurn). Recovery replays the
// logged request through the same Session.ApplyChurn path the live job
// took, which the engine's differential churn suite proves reproduces
// the incremental state bit-identically (durability.go).

import (
	"errors"
	"fmt"
	"net/http"

	"ube/internal/engine"
	"ube/internal/faultinject"
	"ube/internal/schemaio"
)

// churnResponse is the successful churn body: the batch ordinal
// (1-based), the post-batch universe size, and the pre-batch IDs of the
// sources the batch removed.
type churnResponse struct {
	Session string `json:"session"`
	Batch   int    `json:"batch"`
	Sources int    `json:"sources"`
	Removed []int  `json:"removed,omitempty"`
}

func (s *Server) handleChurn(w http.ResponseWriter, r *http.Request) {
	sn, ok := s.lookupSession(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such session")
		return
	}
	raw, ok := readBody(w, r)
	if !ok {
		return
	}
	muts, err := schemaio.DecodeChurnRequestBytes(raw)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	job := &solveJob{
		raw:    raw,
		ctx:    r.Context(),
		remote: r.RemoteAddr,
		churn:  muts,
		done:   make(chan jobResult, 1),
	}
	switch err := s.enqueue(sn, job); {
	case errors.Is(err, errQueueFull):
		w.Header().Set("Retry-After", s.retryAfter())
		s.audit.record(sn.id, "churn.reject", r.RemoteAddr, map[string]any{"queueDepth": s.cfg.QueueDepth})
		writeError(w, http.StatusTooManyRequests, "solve queue is full (depth %d)", s.cfg.QueueDepth)
		return
	case errors.Is(err, errDraining):
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	case errors.Is(err, errSessionGone):
		writeError(w, http.StatusGone, "session was deleted")
		return
	}
	s.audit.record(sn.id, "churn.enqueue", r.RemoteAddr, map[string]any{"mutations": len(muts)})
	select {
	case res := <-job.done:
		if res.retryAfter {
			w.Header().Set("Retry-After", s.retryAfter())
		}
		writeJSON(w, res.status, res.body)
	case <-r.Context().Done():
		// Client gone; the worker observes the dead context and discards
		// the job without us.
	}
}

// runChurnJob executes one admitted churn batch on the worker. Worker
// context: the session's work token is held, so the engine session and
// the universe are exclusively ours until we return.
func (s *Server) runChurnJob(sn *session, job *solveJob) {
	s.metrics.queueDepth.Add(-1)
	s.metrics.inFlight.Add(1)
	defer s.metrics.inFlight.Add(-1)
	defer s.jobsWG.Done()

	finished := false
	finish := func(status int, body any) {
		finished = true
		job.done <- jobResult{status: status, body: body}
	}
	finishRetry := func(status int, body any) {
		finished = true
		job.done <- jobResult{status: status, body: body, retryAfter: true}
	}
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		// Nothing was applied: the panic window (validation, the midway
		// fault) precedes both the WAL append and the commit, so the
		// session is exactly as the job found it. Counted under
		// churnErrors, not solvePanics — admitted churn batches reconcile
		// against the churn terminal counters, never the solve ones.
		s.metrics.churnErrors.Add(1)
		s.audit.record(sn.id, "churn.panic", job.remote, map[string]any{"panic": fmt.Sprint(r)})
		sn.hub.publish("error", map[string]any{"error": "internal error: churn panicked"})
		if !finished {
			finish(http.StatusInternalServerError, errorDoc{Error: "internal error: churn panicked"})
		}
	}()

	if job.ctx.Err() != nil {
		s.metrics.churnsCancelled.Add(1)
		s.audit.record(sn.id, "churn.cancelled", job.remote, map[string]any{"stage": "queued"})
		finish(statusClientClosedRequest, errorDoc{Error: "request cancelled before execution"})
		return
	}

	// Injected conflict: the batch reports a pinned-source refusal
	// regardless of its contents, exercising the 409 path
	// deterministically.
	if s.inj.Fire(faultinject.ChurnConflict) != nil {
		s.metrics.churnConflicts.Add(1)
		s.audit.record(sn.id, "churn.conflict", job.remote, map[string]any{"injected": true})
		finish(http.StatusConflict, errorDoc{Error: "churn conflicts with a pinned source (injected)"})
		return
	}

	// Validate before logging: a batch the WAL records must apply.
	if err := sn.sess.CheckChurn(job.churn); err != nil {
		var pinned *engine.PinnedSourceError
		if errors.As(err, &pinned) {
			s.metrics.churnConflicts.Add(1)
			s.audit.record(sn.id, "churn.conflict", job.remote, map[string]any{"source": pinned.ID, "constraint": pinned.Constraint})
			finish(http.StatusConflict, errorDoc{Error: err.Error()})
			return
		}
		s.metrics.churnErrors.Add(1)
		s.audit.record(sn.id, "churn.error", job.remote, map[string]any{"error": err.Error()})
		finish(http.StatusBadRequest, errorDoc{Error: err.Error()})
		return
	}

	if s.inj.Fire(faultinject.ChurnMidway) != nil {
		panic("faultinject: churn.midway fired between validation and commit")
	}

	// Write-ahead before applying: a mutation the client hears about
	// must replay after a crash, and churn has no undo to lean on.
	sn.mu.Lock()
	batch := len(sn.churnDocs) + 1
	afterSolves := len(sn.historyDocs)
	sn.mu.Unlock()
	payload, err := schemaio.EncodeWALChurn(&schemaio.WALChurnDoc{Batch: batch, Request: job.raw})
	if err == nil {
		err = s.walAppend(schemaio.WALTypeChurn, sn.id, payload)
	}
	if err != nil {
		s.metrics.churnErrors.Add(1)
		s.audit.record(sn.id, "churn.error", job.remote, map[string]any{"error": err.Error()})
		sn.hub.publish("error", map[string]any{"error": "churn not durable"})
		finishRetry(http.StatusServiceUnavailable, errorDoc{Error: fmt.Sprintf("churn not durable: %v", err)})
		return
	}

	remap, err := sn.sess.ApplyChurn(job.churn)
	if err != nil {
		// CheckChurn admitted the batch and nothing else touched the
		// session since: this cannot happen, and guessing would desync
		// the live state from the already-durable record.
		panic(fmt.Sprintf("server: churn desync: validated batch failed to apply: %v", err))
	}
	var removed []int
	for id := 0; id < len(remap); id++ {
		if remap.Of(id) < 0 {
			removed = append(removed, id)
		}
	}
	if err := sn.refreshProblemDoc(); err != nil {
		panic(fmt.Sprintf("server: churn desync: repaired problem has no JSON form: %v", err))
	}
	n := sn.eng.Universe().N()
	sn.mu.Lock()
	sn.churnDocs = append(sn.churnDocs, schemaio.SnapshotChurnDoc{AfterSolves: afterSolves, Request: job.raw})
	sn.sources = n
	sn.mu.Unlock()
	sn.touch()

	s.metrics.churns.Add(1)
	s.audit.record(sn.id, "churn.apply", job.remote, map[string]any{
		"batch":     batch,
		"mutations": len(job.churn),
		"sources":   n,
		"removed":   removed,
	})
	sn.hub.publish("churn", map[string]any{"batch": batch, "sources": n, "removed": removed})
	finish(http.StatusOK, &churnResponse{Session: sn.id, Batch: batch, Sources: n, Removed: removed})
}
