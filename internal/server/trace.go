package server

import (
	"net/http"
	"strconv"

	"ube/internal/schemaio"
	"ube/internal/trace"
)

// Per-session solve tracing.
//
// Every solve can carry a span tracer (see internal/trace); the finished
// trace is kept in a small per-session ring and served as JSONL by
// GET /v1/sessions/{id}/trace. Tracing is a pure side channel — the
// engine guarantees traced and untraced solves produce identical
// results — so the only operational question is overhead under load,
// which the sampling policy answers: while the admission queue is
// shallow (depth ≤ worker pool) every solve is traced; once a backlog
// forms only every traceSampleEvery-th solve is, so tracing cost cannot
// compound the backlog.

const (
	// traceRingSize bounds the per-session trace ring: the last
	// traceRingSize captured traces (by iteration) are retained.
	traceRingSize = 8
	// traceSampleEvery thins tracing once the queue is deeper than the
	// worker pool: only every traceSampleEvery-th solve is traced.
	traceSampleEvery = 8
)

// storedTrace is one captured solve trace; the Trace is immutable after
// Finish, so handlers may encode it outside the session lock.
type storedTrace struct {
	iteration int
	trace     *trace.Trace
}

// shouldTrace applies the sampling policy for one about-to-run solve.
func (s *Server) shouldTrace() bool {
	if int(s.metrics.queueDepth.Load()) <= s.cfg.Workers {
		return true
	}
	return s.metrics.traceTick.Add(1)%traceSampleEvery == 0
}

// storeTrace appends a finished trace to the session's ring. Worker
// context, but the ring is handler-visible, hence the lock.
func (sn *session) storeTrace(iteration int, tr *trace.Trace) {
	if tr == nil {
		return
	}
	sn.mu.Lock()
	sn.traces = append(sn.traces, storedTrace{iteration: iteration, trace: tr})
	if len(sn.traces) > traceRingSize {
		n := copy(sn.traces, sn.traces[len(sn.traces)-traceRingSize:])
		for i := n; i < len(sn.traces); i++ {
			sn.traces[i] = storedTrace{} // release the evicted trace
		}
		sn.traces = sn.traces[:n]
	}
	sn.mu.Unlock()
}

// handleTrace serves a captured solve trace as JSONL (the schemaio trace
// codec): the most recent one by default, or ?iter=k for a specific
// retained iteration. 404 when nothing (or not that iteration) is
// retained — either the session hasn't solved, the iteration aged out of
// the ring, or the solve was sampled out under load.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	sn, ok := s.lookupSession(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such session")
		return
	}
	want := -1
	if v := r.URL.Query().Get("iter"); v != "" {
		k, err := strconv.Atoi(v)
		if err != nil || k < 0 {
			writeError(w, http.StatusBadRequest, "bad iteration %q", v)
			return
		}
		want = k
	}
	var tr *trace.Trace
	sn.mu.Lock()
	if want < 0 {
		if n := len(sn.traces); n > 0 {
			tr = sn.traces[n-1].trace
		}
	} else {
		for i := range sn.traces {
			if sn.traces[i].iteration == want {
				tr = sn.traces[i].trace
				break
			}
		}
	}
	sn.mu.Unlock()
	if tr == nil {
		writeError(w, http.StatusNotFound, "no trace retained (ring keeps the last %d traced solves)", traceRingSize)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	_ = schemaio.EncodeTrace(w, tr)
}
