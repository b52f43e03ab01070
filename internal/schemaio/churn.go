package schemaio

// JSON codec for universe mutation (churn) batches: the body of the
// service's PATCH /v1/sessions/{id}/universe endpoint, the payload of
// session.churn WAL records, and the churn entries inside session
// snapshots. Like every decoder in this package it sits on a trust
// boundary and is strict: unknown fields, unknown ops, oversized lists
// and shape-invalid mutations are errors, never panics.

import (
	"encoding/json"
	"fmt"

	"ube/internal/model"
)

// churnAttrLimit caps one attribute name inside a churn add; normalized
// schema attribute names are short, so anything longer is hostile.
const churnAttrLimit = 1 << 12

// ChurnRequestDoc is one universe mutation batch. The batch applies
// atomically and sequentially (each mutation's ID refers to the state
// after the preceding mutations); see model.Mutation.
type ChurnRequestDoc struct {
	Mutations []model.Mutation `json:"mutations"`
}

// EncodeChurnRequest renders a churn batch as JSON.
func EncodeChurnRequest(muts []model.Mutation) ([]byte, error) {
	d := ChurnRequestDoc{Mutations: muts}
	if err := d.validate(); err != nil {
		return nil, err
	}
	return json.Marshal(&d)
}

// DecodeChurnRequestBytes strictly parses a churn batch.
func DecodeChurnRequestBytes(data []byte) ([]model.Mutation, error) {
	var d ChurnRequestDoc
	if err := DecodeStrict(data, &d); err != nil {
		return nil, fmt.Errorf("schemaio: churn request: %w", err)
	}
	if err := d.validate(); err != nil {
		return nil, err
	}
	return d.Mutations, nil
}

func (d *ChurnRequestDoc) validate() error {
	if len(d.Mutations) == 0 {
		return fmt.Errorf("schemaio: churn request has no mutations")
	}
	if len(d.Mutations) > decodeListLimit {
		return fmt.Errorf("schemaio: churn request has %d mutations, limit %d", len(d.Mutations), decodeListLimit)
	}
	for i := range d.Mutations {
		m := &d.Mutations[i]
		switch m.Op {
		case model.OpAdd:
			if m.ID != 0 || m.Cardinality != nil || m.Characteristics != nil {
				return fmt.Errorf("schemaio: churn mutation %d: add carries update/remove fields", i)
			}
			s := &m.Source
			if len(s.Attributes) == 0 {
				return fmt.Errorf("schemaio: churn mutation %d: added source has no attributes", i)
			}
			if len(s.Attributes) > decodeListLimit {
				return fmt.Errorf("schemaio: churn mutation %d: added source has %d attributes, limit %d", i, len(s.Attributes), decodeListLimit)
			}
			for a, name := range s.Attributes {
				if name == "" || len(name) > churnAttrLimit {
					return fmt.Errorf("schemaio: churn mutation %d: attribute %d has length %d outside [1,%d]", i, a, len(name), churnAttrLimit)
				}
			}
			if s.AttrSignatures != nil && len(s.AttrSignatures) != len(s.Attributes) {
				return fmt.Errorf("schemaio: churn mutation %d: %d attribute signatures for %d attributes", i, len(s.AttrSignatures), len(s.Attributes))
			}
			if s.Cardinality < 0 {
				return fmt.Errorf("schemaio: churn mutation %d: added source has negative cardinality %d", i, s.Cardinality)
			}
			if len(s.Characteristics) > decodeListLimit {
				return fmt.Errorf("schemaio: churn mutation %d: added source has %d characteristics, limit %d", i, len(s.Characteristics), decodeListLimit)
			}
		case model.OpRemove:
			if m.ID < 0 || m.ID > decodeUniverseLimit {
				return fmt.Errorf("schemaio: churn mutation %d: remove ID %d outside [0,%d]", i, m.ID, decodeUniverseLimit)
			}
			if len(m.Source.Attributes) != 0 || m.Cardinality != nil || m.Characteristics != nil {
				return fmt.Errorf("schemaio: churn mutation %d: remove carries add/update fields", i)
			}
		case model.OpUpdate:
			if m.ID < 0 || m.ID > decodeUniverseLimit {
				return fmt.Errorf("schemaio: churn mutation %d: update ID %d outside [0,%d]", i, m.ID, decodeUniverseLimit)
			}
			if len(m.Source.Attributes) != 0 {
				return fmt.Errorf("schemaio: churn mutation %d: update carries an added source", i)
			}
			if m.Cardinality == nil && m.Characteristics == nil {
				return fmt.Errorf("schemaio: churn mutation %d: update changes nothing", i)
			}
			if m.Cardinality != nil && *m.Cardinality < 0 {
				return fmt.Errorf("schemaio: churn mutation %d: update cardinality %d is negative", i, *m.Cardinality)
			}
			if len(m.Characteristics) > decodeListLimit {
				return fmt.Errorf("schemaio: churn mutation %d: update has %d characteristics, limit %d", i, len(m.Characteristics), decodeListLimit)
			}
		default:
			return fmt.Errorf("schemaio: churn mutation %d: unknown op %q", i, m.Op)
		}
	}
	return nil
}

// WALChurnDoc is the payload of a session.churn record: the session's
// 1-based churn ordinal and the client's request body, verbatim —
// replay re-decodes and re-applies it through the same Session.ApplyChurn
// path the live request took, reproducing the engine's incremental state
// bit-identically (the differential churn suite's guarantee).
type WALChurnDoc struct {
	Batch   int             `json:"batch"`
	Request json.RawMessage `json:"request"`
}

// EncodeWALChurn renders a churn payload.
func EncodeWALChurn(d *WALChurnDoc) ([]byte, error) {
	if err := d.validate(); err != nil {
		return nil, err
	}
	return json.Marshal(d)
}

// DecodeWALChurnBytes strictly parses a churn payload.
func DecodeWALChurnBytes(data []byte) (*WALChurnDoc, error) {
	var d WALChurnDoc
	if err := DecodeStrict(data, &d); err != nil {
		return nil, fmt.Errorf("schemaio: wal churn payload: %w", err)
	}
	if err := d.validate(); err != nil {
		return nil, err
	}
	return &d, nil
}

func (d *WALChurnDoc) validate() error {
	if d.Batch < 1 || d.Batch > walHistoryLimit {
		return fmt.Errorf("schemaio: wal churn batch ordinal %d outside [1,%d]", d.Batch, walHistoryLimit)
	}
	if len(d.Request) == 0 {
		return fmt.Errorf("schemaio: wal churn payload has no request")
	}
	if !json.Valid(d.Request) {
		return fmt.Errorf("schemaio: wal churn request is not valid JSON")
	}
	return nil
}

// SnapshotChurnDoc is one churn batch inside a session snapshot, tagged
// with the number of committed solves that preceded it so restoration
// knows whether the session's warm start was churn-repaired after its
// last solve.
type SnapshotChurnDoc struct {
	AfterSolves int             `json:"afterSolves"`
	Request     json.RawMessage `json:"request"`
}
