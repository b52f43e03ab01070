package schemaio

import (
	"encoding/json"
	"strings"
	"testing"
)

func validWALRecord() *WALRecordDoc {
	return &WALRecordDoc{
		Seq:     1,
		Type:    WALTypeSolve,
		Session: "s1",
		TS:      1700000000,
		Data:    json.RawMessage(`{"iteration":0,"request":{}}`),
	}
}

func TestWALRecordRoundTrip(t *testing.T) {
	docs := []*WALRecordDoc{
		validWALRecord(),
		{Seq: 2, Type: WALTypeCreate, Session: "s9", Data: json.RawMessage(`{"universe":[]}`)},
		{Seq: 3, Type: WALTypeDelete, Session: "s1"},
		{Seq: 4, Type: WALTypeEvict, Session: "s2"},
		{Seq: 5, Type: WALTypeCheckpoint, Data: json.RawMessage(`{"sessions":["s1"]}`)},
		{Seq: 6, Type: WALTypeSnapshot, Session: "s1", Data: json.RawMessage(`{"x":1}`)},
	}
	for _, want := range docs {
		data, err := EncodeWALRecord(want)
		if err != nil {
			t.Fatalf("EncodeWALRecord(%s): %v", want.Type, err)
		}
		got, err := DecodeWALRecordBytes(data)
		if err != nil {
			t.Fatalf("DecodeWALRecordBytes(%s): %v", want.Type, err)
		}
		re, err := EncodeWALRecord(got)
		if err != nil {
			t.Fatalf("re-encode(%s): %v", want.Type, err)
		}
		if string(re) != string(data) {
			t.Fatalf("%s round trip not byte-identical:\n first=%s\nsecond=%s", want.Type, data, re)
		}
	}
}

func TestWALRecordValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*WALRecordDoc)
		want string
	}{
		{"zero seq", func(d *WALRecordDoc) { d.Seq = 0 }, "sequence"},
		{"unknown type", func(d *WALRecordDoc) { d.Type = "session.mystery" }, "unknown type"},
		{"missing session", func(d *WALRecordDoc) { d.Session = "" }, "no session"},
		{"oversized session", func(d *WALRecordDoc) { d.Session = strings.Repeat("s", walSessionLimit+1) }, "limit"},
		{"checkpoint with session", func(d *WALRecordDoc) { d.Type = WALTypeCheckpoint }, "names session"},
		{"solve without payload", func(d *WALRecordDoc) { d.Data = nil }, "no payload"},
		{"negative ts", func(d *WALRecordDoc) { d.TS = -1 }, "negative timestamp"},
	}
	for _, tc := range cases {
		d := validWALRecord()
		tc.mut(d)
		if _, err := EncodeWALRecord(d); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: EncodeWALRecord err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

func TestDecodeWALRecordBytesStrict(t *testing.T) {
	cases := []struct {
		name string
		data string
	}{
		{"unknown field", `{"seq":1,"type":"session.delete","session":"s1","bogus":true}`},
		{"trailing data", `{"seq":1,"type":"session.delete","session":"s1"}{"seq":2}`},
		{"not json", `hello`},
		{"wrong shape", `[1,2,3]`},
		{"empty", ``},
	}
	for _, tc := range cases {
		if _, err := DecodeWALRecordBytes([]byte(tc.data)); err == nil {
			t.Errorf("%s: DecodeWALRecordBytes accepted %q", tc.name, tc.data)
		}
	}
}

func TestWALSolveDocRoundTrip(t *testing.T) {
	want := &WALSolveDoc{Iteration: 3, Request: json.RawMessage(`{"pins":["a"]}`)}
	data, err := EncodeWALSolve(want)
	if err != nil {
		t.Fatalf("EncodeWALSolve: %v", err)
	}
	got, err := DecodeWALSolveBytes(data)
	if err != nil {
		t.Fatalf("DecodeWALSolveBytes: %v", err)
	}
	if got.Iteration != want.Iteration || string(got.Request) != string(want.Request) {
		t.Fatalf("round trip mismatch: got %+v want %+v", got, want)
	}
	bad := []*WALSolveDoc{
		{Iteration: -1, Request: json.RawMessage(`{}`)},
		{Iteration: walHistoryLimit + 1, Request: json.RawMessage(`{}`)},
		{Iteration: 0},
		{Iteration: 0, Request: json.RawMessage(`{"x":`)},
	}
	for i, d := range bad {
		if _, err := EncodeWALSolve(d); err == nil {
			t.Errorf("bad solve doc %d accepted", i)
		}
	}
}

func TestSessionSnapshotDocValidation(t *testing.T) {
	valid := func() *SessionSnapshotDoc {
		return &SessionSnapshotDoc{
			ID:      "s1",
			Create:  json.RawMessage(`{"universe":[]}`),
			Problem: &ProblemDoc{},
			Solves:  0,
		}
	}
	if _, err := EncodeSessionSnapshot(valid()); err != nil {
		t.Fatalf("valid snapshot rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*SessionSnapshotDoc)
	}{
		{"no id", func(d *SessionSnapshotDoc) { d.ID = "" }},
		{"no create", func(d *SessionSnapshotDoc) { d.Create = nil }},
		{"invalid create", func(d *SessionSnapshotDoc) { d.Create = json.RawMessage(`{`) }},
		{"nil problem", func(d *SessionSnapshotDoc) { d.Problem = nil }},
		{"negative solves", func(d *SessionSnapshotDoc) { d.Solves = -1 }},
		{"history/solves mismatch", func(d *SessionSnapshotDoc) { d.Solves = 2 }},
	}
	for _, tc := range cases {
		d := valid()
		tc.mut(d)
		if _, err := EncodeSessionSnapshot(d); err == nil {
			t.Errorf("%s: invalid snapshot accepted", tc.name)
		}
	}
	data, err := EncodeSessionSnapshot(valid())
	if err != nil {
		t.Fatalf("EncodeSessionSnapshot: %v", err)
	}
	if _, err := DecodeSessionSnapshotBytes(data); err != nil {
		t.Fatalf("DecodeSessionSnapshotBytes: %v", err)
	}
	if _, err := DecodeSessionSnapshotBytes(append(data, 'x')); err == nil {
		t.Error("snapshot with trailing byte accepted")
	}
}

func TestWALCheckpointDoc(t *testing.T) {
	data, err := EncodeWALCheckpoint(&WALCheckpointDoc{Sessions: []string{"s1", "s2"}})
	if err != nil {
		t.Fatalf("EncodeWALCheckpoint: %v", err)
	}
	got, err := DecodeWALCheckpointBytes(data)
	if err != nil {
		t.Fatalf("DecodeWALCheckpointBytes: %v", err)
	}
	if len(got.Sessions) != 2 || got.Sessions[0] != "s1" {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if _, err := EncodeWALCheckpoint(&WALCheckpointDoc{Sessions: []string{""}}); err == nil {
		t.Error("checkpoint with empty session ID accepted")
	}
	if _, err := DecodeWALCheckpointBytes([]byte(`{"sessions":["s1"],"x":1}`)); err == nil {
		t.Error("checkpoint with unknown field accepted")
	}
}

// TestWALRecordCompactsData pins what lets the server write request
// bodies ahead as they came: the record encoding embeds Data in its
// compact form and refuses Data that is not JSON.
func TestWALRecordCompactsData(t *testing.T) {
	rec := &WALRecordDoc{Seq: 1, Type: WALTypeCreate, Session: "s1", Data: []byte(" {\n  \"a\": [1, 2]\n} ")}
	got, err := EncodeWALRecord(rec)
	if err != nil {
		t.Fatalf("EncodeWALRecord: %v", err)
	}
	if want := `{"seq":1,"type":"session.create","session":"s1","data":{"a":[1,2]}}`; string(got) != want {
		t.Fatalf("EncodeWALRecord = %s, want %s", got, want)
	}
	rec.Data = []byte(`{"a":`)
	if _, err := EncodeWALRecord(rec); err == nil {
		t.Error("EncodeWALRecord accepted Data that is not JSON")
	}
}
