package server

// Durable sessions (DESIGN.md §14). With Config.WALDir set, every
// session lifecycle event is written ahead to internal/wal before the
// client hears about it: create records carry the canonical create
// request, solve records carry the iteration ordinal and the canonical
// solve request, delete/evict records carry just the session. Because
// every solve is a pure function of (problem, seed) — the determinism
// contract the whole service is built on — recovery needs no result
// bytes: Open replays the surviving records through the same
// buildSession/applyEdits/SolveContext path the live handlers took and
// reconstructs every session's history bit-identically. The only
// non-reproducible parts of a history are operational telemetry
// (wall-clock time, cache warmth); solve records carry the observed
// values and replay patches them into the re-solved result.
//
// Snapshots bound the replay work: a session.snapshot record embeds the
// create request, the current problem (seed already advanced) and the
// mirrored history, so solves at iterations below the snapshot's count
// are skipped, not re-run. Rotation writes a snapshot of every live
// session at the head of a fresh segment and deletes the older ones;
// the periodic per-session snapshots (Config.SnapshotEvery) do the same
// for long-lived sessions between rotations.
//
// Universe mutation (churn) rides the same scheme: a session.churn
// record carries its 1-based batch ordinal and the canonical PATCH
// request, written ahead of the apply (see churn.go), and replay pushes
// the request through the same Session.ApplyChurn the live job took —
// the engine's differential churn suite proves the incremental result
// is bit-identical to building the mutated universe fresh. Snapshots
// embed every committed batch (with the solve count each landed after)
// so a restore re-applies them to the rebuilt engine before installing
// the snapshot's already-repaired problem.
//
// Replay tolerance: a create record for a session a snapshot already
// restored is a duplicate (rotation raced the create's group commit)
// and is skipped; solve/churn/delete/evict records naming an unknown
// session are orphans (their session's removal committed before a
// crash, or a create-undo raced a queued solve) and are counted, not
// fatal. A solve record whose iteration — or a churn record whose batch
// ordinal — leaves a gap is corruption and recovery refuses to guess.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"

	"ube/internal/engine"
	"ube/internal/schemaio"
	"ube/internal/wal"
)

// recoveryDoc reports what startup recovery found and did; served under
// /metrics as walRecovery.
type recoveryDoc struct {
	Segments       int    `json:"segments"`
	Records        int    `json:"records"`
	TornBytes      int64  `json:"tornBytes"`
	DroppedRecords int    `json:"droppedRecords"`
	LastSeq        uint64 `json:"lastSeq"`
	Sessions       int    `json:"sessions"`
	SolvesReplayed int    `json:"solvesReplayed"`
	SolvesSkipped  int    `json:"solvesSkipped"`
	ChurnsReplayed int    `json:"churnsReplayed"`
	ChurnsSkipped  int    `json:"churnsSkipped"`
	Orphans        int    `json:"orphanRecords"`
	Duplicates     int    `json:"duplicateCreates"`
}

// openDurable opens (and recovers) the WAL and replays its records into
// live sessions. Runs during Open, before any worker or janitor starts.
func (s *Server) openDurable() error {
	l, rec, err := wal.Open(wal.Options{
		Dir:          s.cfg.WALDir,
		Fsync:        s.cfg.WALFsync,
		SegmentBytes: s.cfg.WALSegmentBytes,
		Injector:     s.inj,
	})
	if err != nil {
		return err
	}
	doc := &recoveryDoc{
		Segments:       rec.Segments,
		Records:        len(rec.Records),
		TornBytes:      rec.TornBytes,
		DroppedRecords: rec.DroppedRecords,
		LastSeq:        rec.LastSeq,
	}
	if err := s.replay(rec.Records, doc); err != nil {
		l.Close()
		return err
	}
	s.wal = l
	// Resume the ID counter past every session the log ever named — not
	// just survivors — so a deleted session's ID is never reissued to a
	// different tenant (the audit trail and the log stay unambiguous).
	maxID := int64(0)
	for _, r := range rec.Records {
		if n, err := strconv.ParseInt(strings.TrimPrefix(r.Session, "s"), 10, 64); err == nil && n > maxID {
			maxID = n
		}
	}
	s.nextID.Store(maxID)
	doc.Sessions = len(s.sessions)
	s.recovered = doc
	s.metrics.sessionsActive.Add(int64(len(s.sessions)))
	s.audit.record("", "server.recover", "", map[string]any{
		"records":        doc.Records,
		"sessions":       doc.Sessions,
		"solvesReplayed": doc.SolvesReplayed,
		"churnsReplayed": doc.ChurnsReplayed,
		"tornBytes":      doc.TornBytes,
	})
	return nil
}

// replay folds the recovered records, oldest first, into s.sessions.
// Any error aborts recovery: a record that committed live but cannot
// replay means the log (or the code) is wrong, and serving a partial
// history would be worse than refusing to start.
func (s *Server) replay(records []*schemaio.WALRecordDoc, doc *recoveryDoc) error {
	for _, r := range records {
		switch r.Type {
		case schemaio.WALTypeCreate:
			if _, ok := s.sessions[r.Session]; ok {
				doc.Duplicates++
				continue
			}
			sn, err := s.replaySession(r.Session, r.Data)
			if err != nil {
				return fmt.Errorf("server: wal replay: create record %d: %w", r.Seq, err)
			}
			s.sessions[r.Session] = sn
		case schemaio.WALTypeSnapshot:
			snap, err := schemaio.DecodeSessionSnapshotBytes(r.Data)
			if err != nil {
				return fmt.Errorf("server: wal replay: snapshot record %d: %w", r.Seq, err)
			}
			sn, err := s.restoreSnapshot(snap)
			if err != nil {
				return fmt.Errorf("server: wal replay: snapshot record %d: %w", r.Seq, err)
			}
			// Wholesale replace: the snapshot is self-contained and
			// covers everything an earlier create/solve prefix built.
			s.sessions[snap.ID] = sn
		case schemaio.WALTypeSolve:
			sn, ok := s.sessions[r.Session]
			if !ok {
				doc.Orphans++
				continue
			}
			sd, err := schemaio.DecodeWALSolveBytes(r.Data)
			if err != nil {
				return fmt.Errorf("server: wal replay: solve record %d: %w", r.Seq, err)
			}
			if err := s.replaySolve(sn, sd, doc); err != nil {
				return fmt.Errorf("server: wal replay: solve record %d (session %s): %w", r.Seq, r.Session, err)
			}
		case schemaio.WALTypeChurn:
			sn, ok := s.sessions[r.Session]
			if !ok {
				doc.Orphans++
				continue
			}
			cd, err := schemaio.DecodeWALChurnBytes(r.Data)
			if err != nil {
				return fmt.Errorf("server: wal replay: churn record %d: %w", r.Seq, err)
			}
			if err := s.replayChurn(sn, cd, doc); err != nil {
				return fmt.Errorf("server: wal replay: churn record %d (session %s): %w", r.Seq, r.Session, err)
			}
		case schemaio.WALTypeDelete, schemaio.WALTypeEvict:
			if _, ok := s.sessions[r.Session]; !ok {
				doc.Orphans++
				continue
			}
			delete(s.sessions, r.Session)
		case schemaio.WALTypeCheckpoint:
			// Informational: the snapshots preceding it already replayed.
		}
	}
	return nil
}

// replaySession rebuilds an engine session from stored create-request
// bytes through the same buildSession the live handler used.
func (s *Server) replaySession(id string, createRaw []byte) (*session, error) {
	var req createSessionRequest
	dec := json.NewDecoder(bytes.NewReader(createRaw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("decoding create request: %w", err)
	}
	sn, err := s.buildSession(&req)
	if err != nil {
		return nil, err
	}
	sn.id = id
	sn.createRaw = append([]byte(nil), createRaw...)
	return sn, nil
}

// restoreSnapshot rebuilds a session wholesale from a self-contained
// snapshot: the engine from the create request, then problem and
// history restored directly — no solves re-run.
func (s *Server) restoreSnapshot(snap *schemaio.SessionSnapshotDoc) (*session, error) {
	sn, err := s.replaySession(snap.ID, snap.Create)
	if err != nil {
		return nil, err
	}
	// Re-apply the snapshot's churn batches to the rebuilt engine at the
	// engine level: the snapshot's problem is already the final repaired
	// one (constraints and warm start remapped, MaxSources clamped), so
	// only the universe needs mutating, and session-level pin checks
	// against the create-time problem could spuriously refuse a batch the
	// live session admitted after dropping a pin.
	for i := range snap.Churn {
		muts, err := schemaio.DecodeChurnRequestBytes(snap.Churn[i].Request)
		if err != nil {
			return nil, fmt.Errorf("snapshot churn batch %d: %w", i+1, err)
		}
		if _, err := sn.eng.ApplyChurn(muts); err != nil {
			return nil, fmt.Errorf("snapshot churn batch %d: %w", i+1, err)
		}
	}
	p, err := snap.Problem.Decode()
	if err != nil {
		return nil, fmt.Errorf("snapshot problem: %w", err)
	}
	history := make([]engine.Iteration, 0, len(snap.History))
	sols := make([]*engine.Solution, 0, len(snap.History))
	for i := range snap.History {
		it, err := snap.History[i].Decode()
		if err != nil {
			return nil, fmt.Errorf("snapshot iteration %d: %w", i, err)
		}
		history = append(history, it)
		sols = append(sols, it.Solution)
	}
	sn.sess.Restore(p, history)
	if n := len(snap.Churn); n > 0 {
		// The flag the live session held at snapshot time is derivable: a
		// batch after the last solve means the history tail's IDs are
		// stale and the next solve must warm-start from the repaired
		// InitialSources the snapshot's problem carries.
		if snap.Churn[n-1].AfterSolves == snap.Solves {
			sn.sess.MarkChurnDirty()
		}
	}
	if err := sn.refreshProblemDoc(); err != nil {
		return nil, err
	}
	sn.mu.Lock()
	sn.historyDocs = append([]schemaio.IterationDoc(nil), snap.History...)
	sn.solutions = sols
	sn.churnDocs = append([]schemaio.SnapshotChurnDoc(nil), snap.Churn...)
	sn.sources = sn.eng.Universe().N()
	sn.mu.Unlock()
	return sn, nil
}

// replaySolve re-runs one committed solve. Solves the session's restore
// point already covers are skipped by iteration ordinal; a gap means
// lost records inside the clean prefix, which recovery refuses.
func (s *Server) replaySolve(sn *session, sd *schemaio.WALSolveDoc, doc *recoveryDoc) error {
	cur := len(sn.sess.History())
	if sd.Iteration < cur {
		doc.SolvesSkipped++
		return nil
	}
	if sd.Iteration > cur {
		return fmt.Errorf("iteration %d leaves a gap after %d committed", sd.Iteration, cur)
	}
	req := &solveRequest{}
	dec := json.NewDecoder(bytes.NewReader(sd.Request))
	dec.DisallowUnknownFields()
	if err := dec.Decode(req); err != nil && !errors.Is(err, io.EOF) {
		return fmt.Errorf("decoding solve request: %w", err)
	}
	if err := applyEdits(sn.sess, req); err != nil {
		return fmt.Errorf("re-applying edits: %w", err)
	}
	if err := sn.refreshProblemDoc(); err != nil {
		return err
	}
	if _, err := sn.sess.SolveContext(context.Background()); err != nil {
		return fmt.Errorf("re-solving: %w", err)
	}
	// The solve result is reproducible; its operational telemetry
	// (wall-clock, cache warmth) is not. Patch in what the live solve
	// observed so the mirrored documents come back bit-identical.
	hist := sn.sess.History()
	sol := hist[len(hist)-1].Solution
	sol.Elapsed = time.Duration(sd.ElapsedNS)
	sol.MatchCache = engine.CacheStats{Hits: sd.CacheHits, Misses: sd.CacheMisses, Evictions: sd.CacheEvictions}
	if err := sn.appendIterationDoc(); err != nil {
		return err
	}
	if err := sn.refreshProblemDoc(); err != nil {
		return err
	}
	doc.SolvesReplayed++
	return nil
}

// replayChurn re-applies one committed universe-mutation batch through
// the same Session.ApplyChurn path the live job took. Batches the
// session's restore point already covers are skipped by batch ordinal;
// a gap means lost records inside the clean prefix, which recovery
// refuses. The pinned-source checks cannot fire spuriously: replay
// reconstructs the exact problem state the live CheckChurn admitted the
// batch against.
func (s *Server) replayChurn(sn *session, cd *schemaio.WALChurnDoc, doc *recoveryDoc) error {
	cur := len(sn.churnDocs)
	if cd.Batch <= cur {
		doc.ChurnsSkipped++
		return nil
	}
	if cd.Batch > cur+1 {
		return fmt.Errorf("batch %d leaves a gap after %d committed", cd.Batch, cur)
	}
	muts, err := schemaio.DecodeChurnRequestBytes(cd.Request)
	if err != nil {
		return fmt.Errorf("decoding churn request: %w", err)
	}
	if _, err := sn.sess.ApplyChurn(muts); err != nil {
		return fmt.Errorf("re-applying churn: %w", err)
	}
	if err := sn.refreshProblemDoc(); err != nil {
		return err
	}
	sn.churnDocs = append(sn.churnDocs, schemaio.SnapshotChurnDoc{AfterSolves: len(sn.historyDocs), Request: cd.Request})
	sn.sources = sn.eng.Universe().N()
	doc.ChurnsReplayed++
	return nil
}

// walAppend commits one lifecycle record, counting failures for
// /healthz and /metrics. A nil log (durability off) accepts everything.
func (s *Server) walAppend(typ, session string, data []byte) error {
	if s.wal == nil {
		return nil
	}
	if _, err := s.wal.Append(typ, session, data); err != nil {
		s.metrics.walAppendErrors.Add(1)
		return err
	}
	return nil
}

// walCommitSolve makes one solved iteration durable and then does the
// housekeeping that keeps recovery fast: a periodic per-session
// snapshot and, when the active segment has outgrown its bound, a
// checkpoint-anchored rotation. Only the solve record itself can fail
// the commit — snapshots and rotation are optimizations, and losing one
// only lengthens a future replay.
func (s *Server) walCommitSolve(sn *session, job *solveJob) error {
	if s.wal == nil {
		return nil
	}
	// Worker context: the just-appended iteration is the history tail.
	hist := sn.sess.History()
	sol := hist[len(hist)-1].Solution
	payload, err := schemaio.EncodeWALSolve(&schemaio.WALSolveDoc{
		Iteration:      job.iteration,
		Request:        job.raw,
		ElapsedNS:      sol.Elapsed.Nanoseconds(),
		CacheHits:      sol.MatchCache.Hits,
		CacheMisses:    sol.MatchCache.Misses,
		CacheEvictions: sol.MatchCache.Evictions,
	})
	if err != nil {
		s.metrics.walAppendErrors.Add(1)
		return err
	}
	if err := s.walAppend(schemaio.WALTypeSolve, sn.id, payload); err != nil {
		return err
	}
	s.maybeSnapshot(sn)
	s.maybeRotate()
	return nil
}

// maybeSnapshot writes a per-session snapshot every SnapshotEvery
// solves. Best-effort: the solve is already durable, so a failed
// snapshot costs replay time, not data.
func (s *Server) maybeSnapshot(sn *session) {
	sn.mu.Lock()
	n := len(sn.historyDocs)
	sn.mu.Unlock()
	if n == 0 || n%s.cfg.SnapshotEvery != 0 {
		return
	}
	doc, err := sn.snapshotDoc()
	if err != nil {
		return
	}
	payload, err := schemaio.EncodeSessionSnapshot(doc)
	if err != nil {
		return
	}
	_ = s.walAppend(schemaio.WALTypeSnapshot, sn.id, payload)
}

// maybeRotate starts a fresh checkpoint-anchored segment once the
// active one outgrows its bound.
func (s *Server) maybeRotate() {
	if !s.wal.ShouldRotate() {
		return
	}
	if err := s.wal.Rotate(s.buildSnapshots); err != nil && !errors.Is(err, wal.ErrClosed) {
		s.metrics.walAppendErrors.Add(1)
	}
}

// buildSnapshots renders a snapshot of every live session for rotation.
// It runs on the WAL flusher goroutine, after pending appends flush, so
// it reads only the handler-visible mirrors and immutable fields —
// never the worker-only engine sessions. Every record already flushed
// has its mirror updated (mirrors are refreshed before the WAL append),
// so the snapshots cover everything the deleted segments could hold.
func (s *Server) buildSnapshots() ([]wal.SessionSnapshot, error) {
	s.mu.Lock()
	sessions := make([]*session, 0, len(s.sessions))
	//ube:nondeterministic-ok collection order is fixed by the sort below
	for _, sn := range s.sessions {
		sessions = append(sessions, sn)
	}
	s.mu.Unlock()
	sort.Slice(sessions, func(i, j int) bool { return sessions[i].id < sessions[j].id })
	out := make([]wal.SessionSnapshot, 0, len(sessions))
	for _, sn := range sessions {
		doc, err := sn.snapshotDoc()
		if err != nil {
			return nil, err
		}
		payload, err := schemaio.EncodeSessionSnapshot(doc)
		if err != nil {
			return nil, err
		}
		out = append(out, wal.SessionSnapshot{Session: sn.id, Data: payload})
	}
	return out, nil
}
