package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"time"

	"ube/internal/engine"
	"ube/internal/faultinject"
	"ube/internal/model"
	"ube/internal/qef"
	"ube/internal/search"
	"ube/internal/spec"
	"ube/internal/trace"
)

// The admission queue and worker pool.
//
// Jobs are not queued globally: each session keeps its own FIFO of
// admitted jobs, and a session with work holds exactly one "work token"
// in the shared work channel. A worker that receives the token drains
// that session's FIFO to empty before returning to the pool. Two
// properties fall out, and both are load-bearing:
//
//  1. Per-session mutual exclusion — at most one worker ever touches a
//     session, so the wrapped engine.Session needs no locks.
//  2. Deterministic serialization — same-session jobs execute in
//     admission order, not in whatever order goroutines would win a
//     mutex, so N concurrent posts to one session always produce the
//     same history as posting them sequentially in admission order.
//
// The global bound is on admitted-but-not-executing jobs across all
// sessions; past it, clients get 429 + Retry-After.

// solveJob is one admitted job: a solve request, or — when churn is
// non-nil — a universe-mutation batch riding the same per-session FIFO,
// so churn serializes against solves in admission order exactly like
// feedback edits do.
type solveJob struct {
	req       *solveRequest
	raw       []byte          // request bytes as decoded, for the WAL record
	ctx       context.Context // the posting request's context
	remote    string
	iteration int              // history index this job will produce; set at execution
	churn     []model.Mutation // non-nil: a universe mutation, not a solve (churn.go)
	done      chan jobResult   // buffered(1): worker never blocks on a gone client
}

type jobResult struct {
	status int
	body   any
	// retryAfter asks the handler to attach backoff guidance (a
	// Retry-After header) to the response: set on 503/504 results whose
	// condition is transient.
	retryAfter bool
}

// errDraining distinguishes drain refusals from queue overflow.
var errDraining = errors.New("server is draining")

// enqueue admits a job onto a session's FIFO, scheduling the session
// into the worker pool if it wasn't already. It returns errDraining or
// errQueueFull without side effects when admission fails.
var errQueueFull = errors.New("solve queue is full")

func (s *Server) enqueue(sn *session, job *solveJob) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return errDraining
	}
	//ube:lock-held-ok Fire is a seeded counter check, never a delay; admission must be atomic with the depth read
	if s.inj.Fire(faultinject.QueueOverflow) != nil {
		// Injected overflow: the queue reports full regardless of depth,
		// exercising the whole 429 + Retry-After + client-backoff path.
		s.mu.Unlock()
		s.metrics.rejections.Add(1)
		return errQueueFull
	}
	if int(s.metrics.queueDepth.Load()) >= s.cfg.QueueDepth {
		s.mu.Unlock()
		s.metrics.rejections.Add(1)
		return errQueueFull
	}
	s.metrics.queueDepth.Add(1)
	s.jobsWG.Add(1)
	s.mu.Unlock()

	sn.mu.Lock()
	if sn.closed {
		sn.mu.Unlock()
		s.metrics.queueDepth.Add(-1)
		s.jobsWG.Done()
		return errSessionGone
	}
	sn.pending = append(sn.pending, job)
	position := len(sn.pending)
	schedule := !sn.scheduled
	if schedule {
		sn.scheduled = true
	}
	sn.mu.Unlock()

	// Admission reconciles per job kind: solves against the solve
	// terminal counters, churn batches against the churn ones.
	if job.churn != nil {
		s.metrics.churnsAdmitted.Add(1)
	} else {
		s.metrics.solvesAdmitted.Add(1)
	}
	sn.hub.publish("queued", map[string]any{"position": position, "queueDepth": s.metrics.queueDepth.Load()})
	if schedule {
		// Never blocks: the channel holds one token per session with
		// work, and sessions-with-work ≤ admitted jobs ≤ QueueDepth,
		// the channel's capacity.
		s.work <- sn
	}
	return nil
}

var errSessionGone = errors.New("session is gone")

// worker pulls session tokens and drains each session's FIFO to empty.
func (s *Server) worker() {
	defer s.workersWG.Done()
	for sn := range s.work {
		for {
			sn.mu.Lock()
			if len(sn.pending) == 0 {
				sn.scheduled = false
				sn.mu.Unlock()
				break
			}
			job := sn.pending[0]
			sn.pending = sn.pending[1:]
			sn.mu.Unlock()
			if job.churn != nil {
				s.runChurnJob(sn, job)
			} else {
				s.runJob(sn, job)
			}
		}
	}
}

// runJob executes one admitted solve: apply the request's problem edits
// all-or-nothing, then solve under the posting request's context, bounded
// by the configured per-solve deadline. A panic anywhere in the job —
// injected or real — is recovered into a 500: the session's problem is
// restored, the panic is audited, and control returns to the worker loop,
// which keeps draining the session's FIFO, so the session's work token is
// released exactly as on a normal return.
func (s *Server) runJob(sn *session, job *solveJob) {
	s.metrics.queueDepth.Add(-1)
	s.metrics.inFlight.Add(1)
	defer s.metrics.inFlight.Add(-1)
	defer s.jobsWG.Done()

	var (
		finished   bool
		saved      engine.Problem
		savedValid bool
	)
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
		// runJob is single-goroutine, so finished/saved reads are safe.
		if savedValid {
			sn.sess.SetProblem(saved)
			_ = sn.refreshProblemDoc()
		}
		sn.sess.SetProgress(nil)
		sn.sess.SetTrace(nil)
		s.metrics.solvePanics.Add(1)
		s.audit.record(sn.id, "solve.panic", job.remote, map[string]any{"iteration": job.iteration, "panic": fmt.Sprint(r)})
		sn.hub.publish("error", map[string]any{"iteration": job.iteration, "error": "internal error: solve panicked"})
		if !finished {
			finish(http.StatusInternalServerError, errorDoc{Error: "internal error: solve panicked"})
		}
	}()
	// The history index this job's solution will occupy if it succeeds.
	// Worker context, so reading the engine session is safe.
	job.iteration = len(sn.sess.History())

	// The client may be long gone by the time this job reaches the
	// front of its session's queue; don't burn a worker on it.
	if job.ctx.Err() != nil {
		s.metrics.solvesCancelled.Add(1)
		s.audit.record(sn.id, "solve.cancelled", job.remote, map[string]any{"iteration": job.iteration, "stage": "queued"})
		finish(statusClientClosedRequest, errorDoc{Error: "request cancelled before execution"})
		return
	}

	// Apply edits atomically: on any error, restore the pre-edit
	// problem so a rejected request leaves the session untouched.
	saved = sn.sess.Problem()
	savedValid = true
	savedChurnDirty := sn.sess.ChurnDirty()
	if err := applyEdits(sn.sess, job.req); err != nil {
		sn.sess.SetProblem(saved)
		s.metrics.solveErrors.Add(1)
		s.audit.record(sn.id, "solve.error", job.remote, map[string]any{"iteration": job.iteration, "error": err.Error()})
		finish(http.StatusBadRequest, errorDoc{Error: err.Error()})
		return
	}
	if err := sn.refreshProblemDoc(); err != nil {
		sn.sess.SetProblem(saved)
		_ = sn.refreshProblemDoc()
		s.metrics.solveErrors.Add(1)
		finish(http.StatusBadRequest, errorDoc{Error: err.Error()})
		return
	}
	s.audit.record(sn.id, "solve.apply", job.remote, map[string]any{"iteration": job.iteration, "edits": job.req})

	sn.hub.publish("start", map[string]any{"iteration": job.iteration})
	sn.sess.SetProgress(func(pr search.Progress) {
		sn.hub.publish("progress", map[string]any{
			"iteration":   job.iteration,
			"evals":       pr.Evals,
			"bestQuality": pr.BestQuality,
			"feasible":    pr.Feasible,
		})
	})
	// Solve tracing is sampled under load (see trace.go); the tracer is
	// a pure side channel, so sampled-out solves are byte-identical to
	// traced ones.
	var trc *trace.Tracer
	if s.shouldTrace() {
		trc = trace.New()
		trc.Label = fmt.Sprintf("%s iter %d", sn.id, job.iteration)
		sn.sess.SetTrace(trc)
	} else {
		s.metrics.tracesSampledOut.Add(1)
	}
	// Bound the solve (and any injected stall) by the per-solve
	// deadline so a stalled worker is reclaimed, not lost.
	solveCtx := job.ctx
	if s.cfg.SolveTimeout > 0 {
		var cancel context.CancelFunc
		solveCtx, cancel = context.WithTimeout(job.ctx, s.cfg.SolveTimeout)
		defer cancel()
	}
	if f := s.inj.Fire(faultinject.WorkerStall); f != nil {
		stall(solveCtx, time.Duration(f.Arg)*time.Millisecond)
	}
	if s.inj.Fire(faultinject.WorkerPanic) != nil {
		panic("faultinject: worker.panic fired at the solve boundary")
	}
	//ube:nondeterministic-ok latency measurement around the solve; never fed back into it
	start := time.Now()
	sol, err := sn.sess.SolveContext(solveCtx)
	//ube:nondeterministic-ok latency measurement around the solve; never fed back into it
	elapsed := time.Since(start)
	sn.sess.SetProgress(nil)
	sn.sess.SetTrace(nil)

	switch {
	case err != nil && job.ctx.Err() != nil:
		// Cancelled mid-solve: the session is untouched (engine
		// guarantees no history append, no seed advance), but the
		// edits stand — same as a cancelled retry of an edited
		// problem. Roll them back too so cancellation is a full undo.
		sn.sess.SetProblem(saved)
		_ = sn.refreshProblemDoc()
		s.metrics.solvesCancelled.Add(1)
		s.audit.record(sn.id, "solve.cancelled", job.remote, map[string]any{"iteration": job.iteration, "stage": "solving"})
		finish(statusClientClosedRequest, errorDoc{Error: "request cancelled during solve"})
		return
	case err != nil && solveCtx.Err() != nil && errors.Is(solveCtx.Err(), context.DeadlineExceeded):
		// The per-solve deadline expired (a stalled or overlong solve).
		// Same full undo as a client cancellation, but the client is
		// still listening: tell it to back off and retry.
		sn.sess.SetProblem(saved)
		_ = sn.refreshProblemDoc()
		s.metrics.solveTimeouts.Add(1)
		s.audit.record(sn.id, "solve.timeout", job.remote, map[string]any{"iteration": job.iteration, "timeoutMs": s.cfg.SolveTimeout.Milliseconds()})
		sn.hub.publish("error", map[string]any{"iteration": job.iteration, "error": "solve deadline exceeded"})
		finishRetry(http.StatusGatewayTimeout, errorDoc{Error: fmt.Sprintf("solve exceeded its %s deadline", s.cfg.SolveTimeout)})
		return
	case err != nil && errors.Is(err, context.Canceled):
		// Cancelled from inside the engine (an injected mid-solve
		// cancellation) while the client and deadline both survive.
		// Full undo; the condition is transient, so advise a retry.
		sn.sess.SetProblem(saved)
		_ = sn.refreshProblemDoc()
		s.metrics.solvesCancelled.Add(1)
		s.audit.record(sn.id, "solve.cancelled", job.remote, map[string]any{"iteration": job.iteration, "stage": "injected"})
		sn.hub.publish("error", map[string]any{"iteration": job.iteration, "error": "solve cancelled mid-flight"})
		finishRetry(http.StatusServiceUnavailable, errorDoc{Error: "solve cancelled mid-flight"})
		return
	case err != nil:
		sn.sess.SetProblem(saved)
		_ = sn.refreshProblemDoc()
		s.metrics.solveErrors.Add(1)
		s.audit.record(sn.id, "solve.error", job.remote, map[string]any{"iteration": job.iteration, "error": err.Error()})
		sn.hub.publish("error", map[string]any{"iteration": job.iteration, "error": err.Error()})
		finish(http.StatusUnprocessableEntity, errorDoc{Error: err.Error()})
		return
	}

	if err := sn.appendIterationDoc(); err != nil {
		// Unreachable for problems admitted through the JSON API
		// (encode already succeeded pre-solve), but fail loudly.
		s.metrics.solveErrors.Add(1)
		finish(http.StatusInternalServerError, errorDoc{Error: err.Error()})
		return
	}
	_ = sn.refreshProblemDoc() // seed advanced
	// Write-ahead before acknowledging: a solve the client saw must
	// replay after a crash. Mirrors are updated first so a concurrent
	// rotation snapshot always covers every record already flushed. On
	// failure the solve is fully undone — engine history, seed, mirrors
	// — and the client told to retry: the service never acknowledges a
	// result it cannot recover.
	if err := s.walCommitSolve(sn, job); err != nil {
		sn.dropLastIteration()
		hist := sn.sess.History()
		sn.sess.Restore(saved, hist[:len(hist)-1])
		if savedChurnDirty {
			// The successful solve cleared the flag; the undo must put it
			// back or the next solve would warm-start from pre-churn IDs.
			sn.sess.MarkChurnDirty()
		}
		_ = sn.refreshProblemDoc()
		s.metrics.solveErrors.Add(1)
		s.audit.record(sn.id, "solve.error", job.remote, map[string]any{"iteration": job.iteration, "error": err.Error()})
		sn.hub.publish("error", map[string]any{"iteration": job.iteration, "error": "solve not durable"})
		finishRetry(http.StatusServiceUnavailable, errorDoc{Error: fmt.Sprintf("solve not durable: %v", err)})
		return
	}
	sn.touch()

	s.metrics.solves.Add(1)
	s.metrics.observeLatency(elapsed)
	s.metrics.cacheHits.Add(sol.MatchCache.Hits)
	s.metrics.cacheMisses.Add(sol.MatchCache.Misses)
	s.metrics.cacheEvictions.Add(sol.MatchCache.Evictions)
	if trc != nil {
		sn.storeTrace(job.iteration, trc.Finish())
		s.metrics.tracesCaptured.Add(1)
	}

	resp := s.buildSolveResponse(sn, job.iteration, sol)
	sn.hub.publish("done", map[string]any{
		"iteration": job.iteration,
		"quality":   sol.Quality,
		"feasible":  sol.Feasible,
		"sources":   sol.Sources,
		"evals":     sol.Evals,
		"elapsedMs": elapsed.Milliseconds(),
	})
	s.audit.record(sn.id, "solve.done", job.remote, map[string]any{
		"iteration": job.iteration,
		"quality":   sol.Quality,
		"feasible":  sol.Feasible,
		"sources":   sol.Sources,
		"evals":     sol.Evals,
	})
	finish(http.StatusOK, resp)
}

// stall blocks for d, simulating a wedged worker, but stays bounded by
// ctx so the per-solve deadline (or the client vanishing) reclaims the
// worker.
func stall(ctx context.Context, d time.Duration) {
	timer := time.NewTimer(d)
	defer timer.Stop()
	if ctx == nil {
		<-timer.C
		return
	}
	select {
	case <-timer.C:
	case <-ctx.Done():
	}
}

// buildSolveResponse assembles the solve response: the human-readable
// rendered solution plus the machine round-trip doc and the diff against
// the previous iteration.
func (s *Server) buildSolveResponse(sn *session, iteration int, sol *engine.Solution) *solveResponse {
	resp := &solveResponse{
		Session:   sn.id,
		Iteration: iteration,
		Rendered:  spec.Render(sn.eng.Universe(), sol),
	}
	sn.mu.Lock()
	if len(sn.historyDocs) > 0 {
		d := sn.historyDocs[len(sn.historyDocs)-1].Solution
		resp.Solution = &d
	}
	if n := len(sn.solutions); n >= 2 {
		resp.Diff = engine.DiffSolutions(sn.solutions[n-2], sn.solutions[n-1])
	}
	sn.mu.Unlock()
	return resp
}

// applyEdits applies one solve request's problem edits to the session in
// a fixed, documented order: scalars first (maxSources, theta, beta,
// optimizer, workers, maxEvals), then weights (wholesale replacement
// before single-weight rescales, rescales in ascending name order), then
// source constraints (drops before adds), then GA constraints (unpins by
// descending index, then pins). The caller restores the prior problem on
// error, making the batch all-or-nothing.
func applyEdits(sess *engine.Session, req *solveRequest) error {
	if req.MaxSources != nil {
		sess.SetMaxSources(*req.MaxSources)
	}
	if req.Theta != nil {
		sess.SetTheta(*req.Theta)
	}
	if req.Beta != nil {
		sess.SetBeta(*req.Beta)
	}
	if req.Optimizer != "" {
		opt, ok := search.ByName(req.Optimizer)
		if !ok {
			return errors.New("unknown optimizer " + req.Optimizer)
		}
		sess.SetOptimizer(opt)
	}
	p := sess.Problem()
	if req.Workers != nil {
		p.Workers = *req.Workers
		sess.SetProblem(p)
	}
	if req.MaxEvals != nil {
		p = sess.Problem()
		p.MaxEvals = *req.MaxEvals
		sess.SetProblem(p)
	}
	if len(req.Weights) > 0 {
		sess.SetWeights(qef.Weights(req.Weights))
	}
	if len(req.SetWeights) > 0 {
		// Ascending name order: rescales interact, so the order is part
		// of the API contract and must not depend on map iteration.
		names := make([]string, 0, len(req.SetWeights))
		for name := range req.SetWeights {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			if err := sess.SetWeight(name, req.SetWeights[name]); err != nil {
				return err
			}
		}
	}
	for _, id := range req.DropSourcePins {
		sess.DropSourceConstraint(id)
	}
	for _, id := range req.DropExclusions {
		sess.DropExclusion(id)
	}
	for _, id := range req.PinSources {
		if err := sess.RequireSource(id); err != nil {
			return err
		}
	}
	for _, id := range req.ExcludeSources {
		if err := sess.ExcludeSource(id); err != nil {
			return err
		}
	}
	if len(req.UnpinGAs) > 0 {
		// Descending index so earlier removals don't shift later ones.
		idx := append([]int(nil), req.UnpinGAs...)
		sort.Sort(sort.Reverse(sort.IntSlice(idx)))
		for _, i := range idx {
			if err := sess.UnpinGA(i); err != nil {
				return err
			}
		}
	}
	for _, i := range req.PinGAs {
		if err := sess.PinGAFromSolution(i); err != nil {
			return err
		}
	}
	return nil
}
