package schemaio

import (
	"bytes"
	"encoding/json"
	"sort"
	"strings"
	"testing"

	"ube/internal/synth"
)

// lineSep and paraSep are U+2028 and U+2029 in UTF-8.
const lineSep, paraSep = "\xe2\x80\xa8", "\xe2\x80\xa9"

// FuzzCompactJSON is the differential for appendCompact: on every
// non-empty input it gives exactly the bytes json.Marshal gives the same
// input as a json.RawMessage, and it refuses exactly what that refuses.
// (An empty RawMessage never reaches it: EncodeWALRecord omits empty
// Data, and json.Marshal renders a nil RawMessage as null.)
func FuzzCompactJSON(f *testing.F) {
	u, _, err := synth.Generate(synth.QuickConfig(3))
	if err != nil {
		f.Fatal(err)
	}
	pretty, err := json.MarshalIndent(u, " ", "\t")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(pretty)
	f.Add(append(append([]byte("\r\n "), pretty...), "\n\n"...))
	for _, s := range []string{
		`{"a":[1,2]}`, " {\n  \"a\": [1, 2]\n} ", `{}`, `[]`, `[ ]`, `{ }`, `""`,
		`"<a href=\"x\">&amp;</a>"`, `{"<>&":"&<>"}`,
		`"a` + lineSep + `b` + paraSep + `c"`, `"\xe2\x80"`, `"\xe2\x80\xaa"`, `"\xe2"`,
		`"\u003c\/\b\f\n\r\t\"\\"`, `"\u12"`, `"\x"`, `"\u00zz"`, "\"a\x01b\"", "\"\x7f\xff\xfe\"",
		`0`, `-0`, `-0.0e+00`, `1E400`, `123456789012345678901234567890`, `1.5e-7`,
		`01`, `-`, `1.`, `.5`, `1e`, `1e+`, `+1`, `0x1`, `- 1`, `1 2`, `NaN`,
		`true`, `false`, `null`, `tru`, `nulll`, `True`,
		`[1,]`, `{"a":1,}`, `{"a" 1}`, `{a:1}`, `{"a":1 "b":2}`, `[1 2]`, `]`, `[`, `{"a":}`,
		" ", "\t\r\n", `{} x`, `{}}`, `"unterminated`,
	} {
		f.Add([]byte(s))
	}
	for _, depth := range []int{maxCompactDepth, maxCompactDepth + 1} {
		f.Add([]byte(strings.Repeat("[", depth) + strings.Repeat("]", depth)))
		f.Add([]byte(strings.Repeat(`{"a":`, depth-1) + `{}` + strings.Repeat("}", depth-1)))
	}

	f.Fuzz(func(t *testing.T, src []byte) {
		if len(src) == 0 {
			return
		}
		want, werr := json.Marshal(json.RawMessage(src))
		prefix := []byte(`{"x":`)
		got, ok := appendCompact(prefix, src)
		if ok != (werr == nil) {
			t.Fatalf("input %.200q: appendCompact ok=%v, json.Marshal err %v", src, ok, werr)
		}
		if !bytes.Equal(got[:len(prefix)], prefix) {
			t.Fatalf("input %.200q: prefix overwritten: %.40q", src, got)
		}
		if !ok {
			if len(got) != len(prefix) {
				t.Fatalf("input %.200q: refused but appended %.200q", src, got[len(prefix):])
			}
			return
		}
		if !bytes.Equal(got[len(prefix):], want) {
			t.Fatalf("input %.200q:\n got %.200q\nwant %.200q", src, got[len(prefix):], want)
		}
	})
}

// TestEncodeWALRecordMatchesMarshal holds EncodeWALRecord to the
// encoding it replaced, json.Marshal of the validated envelope: the same
// bytes and the same error on every record type, nil and empty Data,
// session IDs that need escaping, and payloads JSON refuses.
func TestEncodeWALRecordMatchesMarshal(t *testing.T) {
	oracle := func(d *WALRecordDoc) ([]byte, error) {
		if err := d.validate(); err != nil {
			return nil, err
		}
		return json.Marshal(d)
	}
	payloads := [][]byte{
		nil, {},
		[]byte(`{"a":[1,2]}`),
		[]byte(" {\n  \"a\": [1, 2],\n\t\"b\": {\"c\": null}\n} \n"),
		[]byte(`{"html":"<b>&amp;</b>","sep":"` + lineSep + paraSep + `"}`),
		[]byte(`"\u003c\/\n"`), []byte(" -1.5e+10 "), []byte(`[true,false,null]`),
		[]byte(`{"a":`), []byte(" "), []byte(`{} x`), []byte("\"a\x01\""), []byte(`01`),
	}
	sessions := []string{"", "s1", `q"<&>\` + lineSep, "ü\xff", strings.Repeat("x", walSessionLimit+1)}
	types := make([]string, 0, len(walTypes)+1)
	for typ := range walTypes {
		types = append(types, typ)
	}
	sort.Strings(types)
	types = append(types, "session.unknown")

	accepted, refused := 0, 0
	for _, typ := range types {
		for _, sess := range sessions {
			for _, data := range payloads {
				for _, rec := range []WALRecordDoc{
					{Seq: 7, Type: typ, Session: sess, Data: data},
					{Seq: 1 << 40, Type: typ, Session: sess, TS: 1_700_000_000_123, Data: data},
					{Seq: 0, Type: typ, Session: sess, Data: data},
				} {
					got, gerr := EncodeWALRecord(&rec)
					want, werr := oracle(&rec)
					if (gerr == nil) != (werr == nil) || gerr != nil && gerr.Error() != werr.Error() {
						t.Fatalf("%+v: err %v, json.Marshal err %v", rec, gerr, werr)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("%+v:\n got %s\nwant %s", rec, got, want)
					}
					if gerr == nil {
						accepted++
					} else {
						refused++
					}
				}
			}
		}
	}
	if accepted == 0 || refused == 0 {
		t.Fatalf("cases not exercised: %d accepted, %d refused", accepted, refused)
	}
	bad := &WALRecordDoc{Seq: 1, Type: WALTypeCreate, Session: "s1", Data: []byte(`{"a":`)}
	if _, err := EncodeWALRecord(bad); err == nil {
		t.Error("EncodeWALRecord accepted a payload that is not JSON")
	}
}
