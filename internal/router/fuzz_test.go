package router

import (
	"bytes"
	"encoding/json"
	"testing"
)

// shardCreateRequest mirrors the shard's createSessionRequest field for
// field, with the universe and problem kept raw: the decode below then
// accepts a superset of what the shard's strict decode accepts, and
// reads "id" exactly as it does.
type shardCreateRequest struct {
	Universe json.RawMessage `json:"universe,omitempty"`
	Schemas  string          `json:"schemas,omitempty"`
	Problem  json.RawMessage `json:"problem,omitempty"`
	ID       string          `json:"id,omitempty"`
}

// shardDecode decodes raw the way the shard's create handler does
// (unknown fields and trailing content refused) and reports whether the
// shard could accept it as a create: only a JSON object can carry the
// universe a session needs, so null and the empty body do not count.
func shardDecode(raw []byte) (string, bool) {
	var req shardCreateRequest
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if dec.Decode(&req) != nil {
		return "", false
	}
	if len(bytes.TrimLeft(raw[dec.InputOffset():], " \t\r\n")) > 0 {
		return "", false
	}
	if t := bytes.TrimLeft(raw, " \t\r\n"); len(t) == 0 || t[0] != '{' {
		return "", false
	}
	return req.ID, true
}

// FuzzRouterDecode fuzzes the one place the router interprets request
// bytes: the create-body ID scan that decides placement. The shard's
// strict decoder is the trust boundary the scan must agree with.
// Invariants: the scan never panics; it refuses no body the shard would
// accept; and on every such body the ID it finds is the decoded req.ID
// (escaped and case-folded keys, last duplicate wins, null leaves the
// ID alone, nested "id" ignored).
func FuzzRouterDecode(f *testing.F) {
	seeds := []string{
		`{}`,
		`{"id":"alpha"}`,
		`{"id":""}`,
		`{"universe":{"sources":[{"name":"s0"}]},"problem":{"maxSources":5}}`,
		`{"id":"g17","problem":{"theta":0.85,"seed":9007199254740993}}`,
		`{"id":17}`,
		`{"id":null}`,
		`[1,2,3]`,
		`"just a string"`,
		`{"a":1}{"b":2}`,
		`{"nested":{"id":"inner"},"id":"outer"}`,
		`{"big":1e308,"tiny":5e-324,"neg":-0.0}`,
		`{"unicode":"ü😀"}`,
		``,
		`{`,
		`{"id":"x","id":"y"}`,
		`{"\u0069d":"escaped"}`,
		`{"\u0049\u0044":"escaped-upper"}`,
		`{"i\u0064":"a","universe":{"\u0069d":"nested"}}`,
		`{"iD":"mixed"}`,
		`{"ID":"upper"}`,
		`{"Id":"a","iD":"b"}`,
		`{"id":"x","ID":null}`,
		`{"id":"x","id":""}`,
		`{"universe":{"id":"inner","x":[{"id":"deeper"}]},"schemas":"id: {a}"}`,
		`{"problem":{"id":"inner"}}`,
		` {"id" : "spaced" } `,
		`{"id":"a\"b"}`,
		`{"schemas":"\\","id":"after-escape"}`,
		`{"id":"x"} }`,
		`{"id":"x"} x`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		got, err := scanCreateID(raw)
		want, ok := shardDecode(raw)
		if !ok {
			return // the shard refuses it; the scan may do either
		}
		if err != nil {
			t.Fatalf("scan refused (%v) a body the shard accepts: %q", err, raw)
		}
		if got != want {
			t.Fatalf("scan found id %q, shard decodes %q: %q", got, want, raw)
		}
	})
}
