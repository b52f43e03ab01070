package schemaio

// JSONL encoding for the tamper-evident audit chain (internal/auditlog):
// a header line, then one line per audit record (hash-chained) and one
// line per sealed batch (Merkle root, optionally HMAC-signed). The
// writer emits every line through the encoders here and the verifier
// re-renders each parsed line and requires byte equality, so any
// single-byte mutation of a committed chain — content, hashes, even
// whitespace — is detectable. Decoding is strict and never panics:
// ube-audit reads files from outside the process.

import (
	"encoding/json"
	"fmt"
)

// AuditChainDocName identifies an audit chain stream's header line.
const AuditChainDocName = "ube.audit.chain"

// AuditChainVersion is the current chain stream version.
const AuditChainVersion = 1

// Audit chain line kinds, carried in each line's "k" field so a reader
// can dispatch without guessing at field shapes.
const (
	AuditChainKindHeader = "h"
	AuditChainKindRecord = "r"
	AuditChainKindBatch  = "b"
)

// auditChainLineLimit caps one chain line; audit records are small
// (an action, a session ID, a detail map), so anything near this is a
// hostile or corrupt file.
const auditChainLineLimit = 1 << 20

// auditHashLen is the hex length of a SHA-256 digest.
const auditHashLen = 64

// AuditChainHeaderDoc is the first line of a chain stream.
type AuditChainHeaderDoc struct {
	K       string `json:"k"`
	Doc     string `json:"doc"`
	Version int    `json:"version"`
}

// AuditChainRecordDoc is one hash-chained audit record line. Record
// holds the audit entry verbatim; Leaf is the SHA-256 of the record
// bytes bound to Seq; Chain is the running hash linking this record to
// every record before it.
type AuditChainRecordDoc struct {
	K      string          `json:"k"`
	Seq    uint64          `json:"seq"`
	Record json.RawMessage `json:"record"`
	Leaf   string          `json:"leaf"`
	Chain  string          `json:"chain"`
}

// AuditChainBatchDoc seals records [From,To] under a Merkle root
// (Bitcoin-style levels over their leaf hashes). Sig, when present, is
// the hex HMAC-SHA256 of the root under the operator's key.
type AuditChainBatchDoc struct {
	K     string `json:"k"`
	Batch uint64 `json:"batch"`
	From  uint64 `json:"from"`
	To    uint64 `json:"to"`
	Root  string `json:"root"`
	Sig   string `json:"sig,omitempty"`
}

// AuditProofStepDoc is one inclusion-proof step: fold the sibling hash
// in from the right (or left) and move up a level.
type AuditProofStepDoc struct {
	Right   bool   `json:"right"`
	Sibling string `json:"sibling"`
}

// AuditProofDoc is a self-contained inclusion proof: the record bytes,
// their position, the fold path, and the sealed batch root the fold
// must land on. ube-audit check verifies one without the chain file.
type AuditProofDoc struct {
	Doc    string              `json:"doc"`
	Seq    uint64              `json:"seq"`
	Batch  uint64              `json:"batch"`
	Record json.RawMessage     `json:"record"`
	Steps  []AuditProofStepDoc `json:"steps"`
	Root   string              `json:"root"`
	Sig    string              `json:"sig,omitempty"`
}

// AuditProofDocName identifies a proof document.
const AuditProofDocName = "ube.audit.proof"

// auditProofStepLimit caps proof depth; 2^64 leaves need only 64 steps.
const auditProofStepLimit = 64

// EncodeAuditChainHeader renders the canonical header line, without the
// trailing newline.
func EncodeAuditChainHeader() []byte {
	data, err := json.Marshal(AuditChainHeaderDoc{K: AuditChainKindHeader, Doc: AuditChainDocName, Version: AuditChainVersion})
	if err != nil {
		panic("schemaio: static header doc failed to marshal: " + err.Error())
	}
	return data
}

// EncodeAuditChainRecord renders one record line (no trailing newline).
// The verifier re-renders through this same function and byte-compares,
// so the output must be deterministic: json.Marshal with fields in
// struct order and the record bytes embedded verbatim.
func EncodeAuditChainRecord(d *AuditChainRecordDoc) ([]byte, error) {
	if err := d.validate(); err != nil {
		return nil, err
	}
	return json.Marshal(d)
}

// EncodeAuditChainBatch renders one batch line (no trailing newline).
func EncodeAuditChainBatch(d *AuditChainBatchDoc) ([]byte, error) {
	if err := d.validate(); err != nil {
		return nil, err
	}
	return json.Marshal(d)
}

// EncodeAuditProof renders a proof document as compact JSON, newline
// terminated — the ube-audit prove output format. Compact, not
// indented: indentation would reformat the embedded record bytes, and
// the leaf hash is over those exact bytes.
func EncodeAuditProof(d *AuditProofDoc) ([]byte, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	data, err := json.Marshal(d)
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// DecodeAuditChainLine strictly parses one chain line, returning a
// *AuditChainHeaderDoc, *AuditChainRecordDoc or *AuditChainBatchDoc.
func DecodeAuditChainLine(line []byte) (any, error) {
	if len(line) > auditChainLineLimit {
		return nil, fmt.Errorf("schemaio: audit chain line is %d bytes, limit %d", len(line), auditChainLineLimit)
	}
	// Peek at the kind tag first (unknown fields allowed), then decode
	// strictly against the kind's own document shape.
	var kind struct {
		K string `json:"k"`
	}
	if err := json.Unmarshal(line, &kind); err != nil {
		return nil, fmt.Errorf("schemaio: audit chain line: %w", err)
	}
	switch kind.K {
	case AuditChainKindHeader:
		var d AuditChainHeaderDoc
		if err := DecodeStrict(line, &d); err != nil {
			return nil, fmt.Errorf("schemaio: audit chain header: %w", err)
		}
		if d.Doc != AuditChainDocName {
			return nil, fmt.Errorf("schemaio: audit chain header doc %q, want %q", d.Doc, AuditChainDocName)
		}
		if d.Version != AuditChainVersion {
			return nil, fmt.Errorf("schemaio: audit chain version %d unsupported (want %d)", d.Version, AuditChainVersion)
		}
		return &d, nil
	case AuditChainKindRecord:
		var d AuditChainRecordDoc
		if err := DecodeStrict(line, &d); err != nil {
			return nil, fmt.Errorf("schemaio: audit chain record: %w", err)
		}
		if err := d.validate(); err != nil {
			return nil, err
		}
		return &d, nil
	case AuditChainKindBatch:
		var d AuditChainBatchDoc
		if err := DecodeStrict(line, &d); err != nil {
			return nil, fmt.Errorf("schemaio: audit chain batch: %w", err)
		}
		if err := d.validate(); err != nil {
			return nil, err
		}
		return &d, nil
	default:
		return nil, fmt.Errorf("schemaio: audit chain line has unknown kind %q", kind.K)
	}
}

// DecodeAuditProofBytes strictly parses a proof document.
func DecodeAuditProofBytes(data []byte) (*AuditProofDoc, error) {
	var d AuditProofDoc
	if err := DecodeStrict(data, &d); err != nil {
		return nil, fmt.Errorf("schemaio: audit proof: %w", err)
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return &d, nil
}

func (d *AuditChainRecordDoc) validate() error {
	if d.K != AuditChainKindRecord {
		return fmt.Errorf("schemaio: audit chain record has kind %q, want %q", d.K, AuditChainKindRecord)
	}
	if d.Seq == 0 {
		return fmt.Errorf("schemaio: audit chain record has no sequence number (seq is 1-based)")
	}
	if len(d.Record) == 0 || !json.Valid(d.Record) {
		return fmt.Errorf("schemaio: audit chain record %d carries no valid record", d.Seq)
	}
	if !isHexDigest(d.Leaf) {
		return fmt.Errorf("schemaio: audit chain record %d leaf is not a %d-char hex digest", d.Seq, auditHashLen)
	}
	if !isHexDigest(d.Chain) {
		return fmt.Errorf("schemaio: audit chain record %d chain is not a %d-char hex digest", d.Seq, auditHashLen)
	}
	return nil
}

func (d *AuditChainBatchDoc) validate() error {
	if d.K != AuditChainKindBatch {
		return fmt.Errorf("schemaio: audit chain batch has kind %q, want %q", d.K, AuditChainKindBatch)
	}
	if d.From == 0 || d.To < d.From {
		return fmt.Errorf("schemaio: audit chain batch %d covers [%d,%d], which is not a valid 1-based range", d.Batch, d.From, d.To)
	}
	if !isHexDigest(d.Root) {
		return fmt.Errorf("schemaio: audit chain batch %d root is not a %d-char hex digest", d.Batch, auditHashLen)
	}
	if d.Sig != "" && !isHexDigest(d.Sig) {
		return fmt.Errorf("schemaio: audit chain batch %d sig is not a %d-char hex digest", d.Batch, auditHashLen)
	}
	return nil
}

// Validate checks a proof document's shape (the cryptographic fold is
// auditlog.CheckProof's job).
func (d *AuditProofDoc) Validate() error {
	if d.Doc != AuditProofDocName {
		return fmt.Errorf("schemaio: audit proof doc %q, want %q", d.Doc, AuditProofDocName)
	}
	if d.Seq == 0 {
		return fmt.Errorf("schemaio: audit proof has no sequence number")
	}
	if len(d.Record) == 0 || !json.Valid(d.Record) {
		return fmt.Errorf("schemaio: audit proof carries no valid record")
	}
	if len(d.Steps) > auditProofStepLimit {
		return fmt.Errorf("schemaio: audit proof has %d steps, limit %d", len(d.Steps), auditProofStepLimit)
	}
	for i, s := range d.Steps {
		if !isHexDigest(s.Sibling) {
			return fmt.Errorf("schemaio: audit proof step %d sibling is not a %d-char hex digest", i, auditHashLen)
		}
	}
	if !isHexDigest(d.Root) {
		return fmt.Errorf("schemaio: audit proof root is not a %d-char hex digest", auditHashLen)
	}
	if d.Sig != "" && !isHexDigest(d.Sig) {
		return fmt.Errorf("schemaio: audit proof sig is not a %d-char hex digest", auditHashLen)
	}
	return nil
}

// isHexDigest reports whether s is exactly one lowercase-hex SHA-256.
func isHexDigest(s string) bool {
	if len(s) != auditHashLen {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}
