package schemaio

// JSON documents carried inside write-ahead-log frames (internal/wal):
// the record envelope, the solve commit payload, and the self-contained
// session snapshot. Like the trace codec, these decoders sit on a trust
// boundary — recovery reads whatever survived a crash on disk — so they
// are strict (unknown fields, trailing data, impossible sizes and
// malformed lifecycle records are all errors) and never panic.

import (
	"encoding/json"
	"fmt"
)

// WAL record types — the closed lifecycle vocabulary. A frame whose
// envelope names anything else is corruption, not a forward-compatible
// extension: recovery must refuse to guess at history.
const (
	WALTypeCreate     = "session.create"
	WALTypeSolve      = "session.solve"
	WALTypeChurn      = "session.churn"
	WALTypeSnapshot   = "session.snapshot"
	WALTypeDelete     = "session.delete"
	WALTypeEvict      = "session.evict"
	WALTypeCheckpoint = "checkpoint"
)

// walTypes is the closed set, for validation.
var walTypes = map[string]bool{
	WALTypeCreate:     true,
	WALTypeSolve:      true,
	WALTypeChurn:      true,
	WALTypeSnapshot:   true,
	WALTypeDelete:     true,
	WALTypeEvict:      true,
	WALTypeCheckpoint: true,
}

// walDataLimit caps a record's embedded payload. Create requests carry
// whole universes, so the bound matches the HTTP body bound (64 MiB)
// plus envelope slack.
const walDataLimit = 64 << 20

// walSessionLimit caps a session ID; the server only ever mints short
// "s<n>" names.
const walSessionLimit = 256

// walHistoryLimit caps the iteration count a snapshot may declare.
const walHistoryLimit = 1 << 20

// WALRecordDoc is the JSON envelope inside every WAL frame: a global
// sequence number, the lifecycle type, the owning session (empty only
// for checkpoints) and the type-specific payload.
type WALRecordDoc struct {
	Seq     uint64 `json:"seq"`
	Type    string `json:"type"`
	Session string `json:"session,omitempty"`
	//ube:operational commit wall-clock, for operators reading a log; replay never consults it
	TS   int64           `json:"ts,omitempty"`
	Data json.RawMessage `json:"data,omitempty"`
}

// EncodeWALRecord renders the envelope as compact JSON — the exact bytes
// framed into the log, byte-identical to json.Marshal(d). Data, the last
// field, is appended through appendCompact rather than encoding/json's
// scanner; a payload that is not JSON goes back to json.Marshal, whose
// error the caller sees.
func EncodeWALRecord(d *WALRecordDoc) ([]byte, error) {
	if err := d.validate(); err != nil {
		return nil, err
	}
	if len(d.Data) == 0 {
		return json.Marshal(d)
	}
	head := *d
	head.Data = nil
	hb, err := json.Marshal(&head)
	if err != nil {
		return nil, err
	}
	const key = `,"data":`
	out := make([]byte, 0, len(hb)+len(key)+len(d.Data))
	out = append(append(out, hb[:len(hb)-1]...), key...)
	out, ok := appendCompact(out, d.Data)
	if !ok {
		return json.Marshal(d)
	}
	return append(out, '}'), nil
}

// DecodeWALRecordBytes strictly parses one framed envelope.
func DecodeWALRecordBytes(data []byte) (*WALRecordDoc, error) {
	var d WALRecordDoc
	if err := DecodeStrict(data, &d); err != nil {
		return nil, fmt.Errorf("schemaio: wal record: %w", err)
	}
	if err := d.validate(); err != nil {
		return nil, err
	}
	return &d, nil
}

func (d *WALRecordDoc) validate() error {
	if d.Seq == 0 {
		return fmt.Errorf("schemaio: wal record has no sequence number (seq is 1-based)")
	}
	if !walTypes[d.Type] {
		return fmt.Errorf("schemaio: wal record %d has unknown type %q", d.Seq, d.Type)
	}
	if len(d.Session) > walSessionLimit {
		return fmt.Errorf("schemaio: wal record %d session ID is %d bytes, limit %d", d.Seq, len(d.Session), walSessionLimit)
	}
	if d.Type == WALTypeCheckpoint {
		if d.Session != "" {
			return fmt.Errorf("schemaio: wal checkpoint record %d names session %q", d.Seq, d.Session)
		}
	} else if d.Session == "" {
		return fmt.Errorf("schemaio: wal %s record %d has no session", d.Type, d.Seq)
	}
	switch d.Type {
	case WALTypeCreate, WALTypeSolve, WALTypeChurn, WALTypeSnapshot:
		if len(d.Data) == 0 {
			return fmt.Errorf("schemaio: wal %s record %d has no payload", d.Type, d.Seq)
		}
	}
	if len(d.Data) > walDataLimit {
		return fmt.Errorf("schemaio: wal record %d payload is %d bytes, limit %d", d.Seq, len(d.Data), walDataLimit)
	}
	if d.TS < 0 {
		return fmt.Errorf("schemaio: wal record %d has negative timestamp %d", d.Seq, d.TS)
	}
	return nil
}

// WALSolveDoc is the payload of a session.solve record: the history
// index the committed solve produced and the client's request body,
// verbatim — replay re-decodes and re-applies it through the same edit
// path the live solve took. The solve result itself is never stored
// (it is a pure function of problem and seed), but the live solve's
// operational telemetry — wall-clock time and match-cache counters —
// is not, so the record carries the observed values and replay patches
// them into the re-solved result to keep recovered histories
// bit-identical with what the live server served.
type WALSolveDoc struct {
	Iteration int             `json:"iteration"`
	Request   json.RawMessage `json:"request"`
	//ube:operational observed live-solve telemetry; never solver input
	ElapsedNS      int64 `json:"elapsedNs,omitempty"`
	CacheHits      int64 `json:"cacheHits,omitempty"`
	CacheMisses    int64 `json:"cacheMisses,omitempty"`
	CacheEvictions int64 `json:"cacheEvictions,omitempty"`
}

// EncodeWALSolve renders a solve payload.
func EncodeWALSolve(d *WALSolveDoc) ([]byte, error) {
	if err := d.validate(); err != nil {
		return nil, err
	}
	return json.Marshal(d)
}

// DecodeWALSolveBytes strictly parses a solve payload.
func DecodeWALSolveBytes(data []byte) (*WALSolveDoc, error) {
	var d WALSolveDoc
	if err := DecodeStrict(data, &d); err != nil {
		return nil, fmt.Errorf("schemaio: wal solve payload: %w", err)
	}
	if err := d.validate(); err != nil {
		return nil, err
	}
	return &d, nil
}

func (d *WALSolveDoc) validate() error {
	if d.Iteration < 0 || d.Iteration > walHistoryLimit {
		return fmt.Errorf("schemaio: wal solve iteration %d outside [0,%d]", d.Iteration, walHistoryLimit)
	}
	if len(d.Request) == 0 {
		return fmt.Errorf("schemaio: wal solve payload has no request")
	}
	if !json.Valid(d.Request) {
		return fmt.Errorf("schemaio: wal solve request is not valid JSON")
	}
	if d.ElapsedNS < 0 || d.CacheHits < 0 || d.CacheMisses < 0 || d.CacheEvictions < 0 {
		return fmt.Errorf("schemaio: wal solve payload has negative telemetry")
	}
	return nil
}

// SessionSnapshotDoc is the payload of a session.snapshot record: a
// fully self-contained session state, so a snapshot both bounds replay
// (solves it covers need not re-run) and anchors truncation (segments
// older than a checkpoint full of these can be deleted).
//
// Create holds the original create-request bytes (universe/schemas and
// starting problem) from which the engine is rebuilt; Problem is the
// current problem (seed already advanced past Solves iterations);
// History is the exact document mirror of the committed iterations.
type SessionSnapshotDoc struct {
	ID      string          `json:"id"`
	Create  json.RawMessage `json:"create"`
	Problem *ProblemDoc     `json:"problem"`
	History []IterationDoc  `json:"history,omitempty"`
	Solves  int             `json:"solves"`
	// Churn lists every committed universe-mutation batch in order, each
	// tagged with the solve count it landed after; restoration replays
	// them against the rebuilt engine before re-attaching History.
	Churn []SnapshotChurnDoc `json:"churn,omitempty"`
}

// EncodeSessionSnapshot renders a snapshot payload.
func EncodeSessionSnapshot(d *SessionSnapshotDoc) ([]byte, error) {
	if err := d.validate(); err != nil {
		return nil, err
	}
	return json.Marshal(d)
}

// DecodeSessionSnapshotBytes strictly parses a snapshot payload.
func DecodeSessionSnapshotBytes(data []byte) (*SessionSnapshotDoc, error) {
	var d SessionSnapshotDoc
	if err := DecodeStrict(data, &d); err != nil {
		return nil, fmt.Errorf("schemaio: session snapshot: %w", err)
	}
	if err := d.validate(); err != nil {
		return nil, err
	}
	return &d, nil
}

func (d *SessionSnapshotDoc) validate() error {
	if d.ID == "" || len(d.ID) > walSessionLimit {
		return fmt.Errorf("schemaio: session snapshot ID length %d outside [1,%d]", len(d.ID), walSessionLimit)
	}
	if len(d.Create) == 0 || !json.Valid(d.Create) {
		return fmt.Errorf("schemaio: session snapshot %s has no valid create request", d.ID)
	}
	if len(d.Create) > walDataLimit {
		return fmt.Errorf("schemaio: session snapshot %s create request is %d bytes, limit %d", d.ID, len(d.Create), walDataLimit)
	}
	if d.Problem == nil {
		return fmt.Errorf("schemaio: session snapshot %s has no current problem", d.ID)
	}
	if d.Solves < 0 || d.Solves > walHistoryLimit {
		return fmt.Errorf("schemaio: session snapshot %s declares %d solves, limit %d", d.ID, d.Solves, walHistoryLimit)
	}
	if len(d.History) != d.Solves {
		return fmt.Errorf("schemaio: session snapshot %s carries %d history entries but declares %d solves", d.ID, len(d.History), d.Solves)
	}
	if len(d.Churn) > walHistoryLimit {
		return fmt.Errorf("schemaio: session snapshot %s carries %d churn batches, limit %d", d.ID, len(d.Churn), walHistoryLimit)
	}
	prev := 0
	for i, cb := range d.Churn {
		if cb.AfterSolves < prev || cb.AfterSolves > d.Solves {
			return fmt.Errorf("schemaio: session snapshot %s churn batch %d lands after %d solves (previous %d, total %d)", d.ID, i, cb.AfterSolves, prev, d.Solves)
		}
		prev = cb.AfterSolves
		if len(cb.Request) == 0 || !json.Valid(cb.Request) {
			return fmt.Errorf("schemaio: session snapshot %s churn batch %d has no valid request", d.ID, i)
		}
	}
	return nil
}

// WALCheckpointDoc is the payload of a checkpoint record: the live
// session IDs whose snapshots immediately precede it in the same
// segment. Older segments are superseded once this record is durable.
type WALCheckpointDoc struct {
	Sessions []string `json:"sessions"`
}

// EncodeWALCheckpoint renders a checkpoint payload.
func EncodeWALCheckpoint(d *WALCheckpointDoc) ([]byte, error) {
	if err := d.validate(); err != nil {
		return nil, err
	}
	return json.Marshal(d)
}

// DecodeWALCheckpointBytes strictly parses a checkpoint payload.
func DecodeWALCheckpointBytes(data []byte) (*WALCheckpointDoc, error) {
	var d WALCheckpointDoc
	if err := DecodeStrict(data, &d); err != nil {
		return nil, fmt.Errorf("schemaio: wal checkpoint: %w", err)
	}
	if err := d.validate(); err != nil {
		return nil, err
	}
	return &d, nil
}

func (d *WALCheckpointDoc) validate() error {
	if len(d.Sessions) > decodeListLimit {
		return fmt.Errorf("schemaio: wal checkpoint lists %d sessions, limit %d", len(d.Sessions), decodeListLimit)
	}
	for i, id := range d.Sessions {
		if id == "" || len(id) > walSessionLimit {
			return fmt.Errorf("schemaio: wal checkpoint session %d has ID length %d outside [1,%d]", i, len(id), walSessionLimit)
		}
	}
	return nil
}
