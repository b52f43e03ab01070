package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"testing"

	"ube/internal/schemaio"
	"ube/internal/wal"
)

// The server-side building blocks of sharded serving: client-supplied
// session IDs (the router places sessions under keys it hashed),
// and binary content negotiation on the hot paths.

func TestClientSuppliedSessionIDs(t *testing.T) {
	u := testUniverse(t, 25)
	_, ts := newTestServer(t, Config{})

	// A valid custom ID is honored verbatim.
	resp, body := postJSON(t, ts.URL+"/v1/sessions", createSessionRequest{Universe: u, Problem: testProblemDoc(), ID: "g17"})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("custom-ID create: %d %s", resp.StatusCode, body)
	}
	var info sessionInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.ID != "g17" {
		t.Fatalf("created session ID %q, want g17", info.ID)
	}
	if resp := getJSON(t, ts.URL+"/v1/sessions/g17", nil); resp.StatusCode != http.StatusOK {
		t.Errorf("GET custom-ID session: %d", resp.StatusCode)
	}

	// Duplicates conflict.
	resp, _ = postJSON(t, ts.URL+"/v1/sessions", createSessionRequest{Universe: u, Problem: testProblemDoc(), ID: "g17"})
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("duplicate custom ID: %d, want 409", resp.StatusCode)
	}

	// Server-minted IDs are unaffected and still interleave fine.
	minted := createSession(t, ts.URL, u, testProblemDoc())
	if minted == "g17" {
		t.Error("minted ID collided with the custom one")
	}

	// Invalid and reserved IDs are rejected up front.
	for _, bad := range []string{"has space", "slash/у", "s12", "s0", "", string(make([]byte, 65))} {
		resp, _ := postJSON(t, ts.URL+"/v1/sessions", createSessionRequest{Universe: u, Problem: testProblemDoc(), ID: bad})
		if bad == "" {
			// Empty means "mint one": must succeed.
			if resp.StatusCode != http.StatusCreated {
				t.Errorf("empty ID: %d, want 201", resp.StatusCode)
			}
			continue
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("ID %q: %d, want 400", bad, resp.StatusCode)
		}
	}
}

// TestCustomIDSurvivesRecovery proves a router-placed session recovers
// under its custom key and the mint counter stays clear of it.
func TestCustomIDSurvivesRecovery(t *testing.T) {
	u := testUniverse(t, 25)
	dir := t.TempDir()

	_, ts, stop := openDurableServer(t, Config{WALDir: dir})
	resp, body := postJSON(t, ts.URL+"/v1/sessions", createSessionRequest{Universe: u, Problem: testProblemDoc(), ID: "ring-42"})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d %s", resp.StatusCode, body)
	}
	if resp, body = postJSON(t, ts.URL+"/v1/sessions/ring-42/solve", solveRequest{}); resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: %d %s", resp.StatusCode, body)
	}
	var before historyDoc
	getJSON(t, ts.URL+"/v1/sessions/ring-42/history", &before)
	stop()

	_, ts2, _ := openDurableServer(t, Config{WALDir: dir})
	var after historyDoc
	if resp := getJSON(t, ts2.URL+"/v1/sessions/ring-42/history", &after); resp.StatusCode != http.StatusOK {
		t.Fatalf("recovered history: %d", resp.StatusCode)
	}
	if len(after.Iterations) != len(before.Iterations) {
		t.Fatalf("recovered %d iterations, want %d", len(after.Iterations), len(before.Iterations))
	}
	// A fresh minted session must not collide with anything.
	id := createSession(t, ts2.URL, u, testProblemDoc())
	if id == "ring-42" {
		t.Error("mint counter collided with the custom ID")
	}
}

type historyDoc struct {
	Iterations []schemaio.IterationDoc `json:"iterations"`
}

func TestBinaryContentNegotiation(t *testing.T) {
	u := testUniverse(t, 25)
	_, ts := newTestServer(t, Config{})
	id := createSession(t, ts.URL, u, testProblemDoc())

	// Binary solve response: same doc as the JSON reference.
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/sessions/"+id+"/solve", bytes.NewReader([]byte("{}")))
	req.Header.Set("Accept", schemaio.BinaryContentType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	frame, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("binary solve: %d %s", resp.StatusCode, frame)
	}
	if ct := resp.Header.Get("Content-Type"); ct != schemaio.BinaryContentType {
		t.Fatalf("binary solve content type %q", ct)
	}
	sr, err := schemaio.DecodeBinarySolveResult(frame)
	if err != nil {
		t.Fatalf("decoding binary solve result: %v", err)
	}
	if sr.Session != id || sr.Iteration != 0 {
		t.Errorf("binary solve result (%q, %d), want (%q, 0)", sr.Session, sr.Iteration, id)
	}

	// Binary history matches the JSON history doc for doc.
	req, _ = http.NewRequest(http.MethodGet, ts.URL+"/v1/sessions/"+id+"/history", nil)
	req.Header.Set("Accept", schemaio.BinaryContentType)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	frame, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	binHist, err := schemaio.DecodeBinaryHistory(frame)
	if err != nil {
		t.Fatalf("decoding binary history: %v", err)
	}
	var jsonHist historyDoc
	getJSON(t, ts.URL+"/v1/sessions/"+id+"/history", &jsonHist)
	if len(binHist) != len(jsonHist.Iterations) {
		t.Fatalf("binary history has %d iterations, JSON %d", len(binHist), len(jsonHist.Iterations))
	}
	if !reflect.DeepEqual(binHist[0].Solution.Sources, jsonHist.Iterations[0].Solution.Sources) {
		t.Error("binary and JSON histories disagree on sources")
	}
	if binHist[0].Solution.Quality != jsonHist.Iterations[0].Solution.Quality {
		t.Error("binary and JSON histories disagree on quality")
	}

	// No Accept header: JSON stays the default.
	resp = getJSON(t, ts.URL+"/v1/sessions/"+id+"/history", nil)
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("default history content type %q", ct)
	}
}

// postRaw posts body bytes as they are, with optional extra headers.
func postRaw(t *testing.T, url string, body []byte, header map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range header {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// TestSessionIDHeader pins the router's create protocol: a minted ID in
// SessionIDHeader names the session like a body id does, passes the
// same validation (the reserved s<N> shape included), and a body id
// that disagrees with it is refused.
func TestSessionIDHeader(t *testing.T) {
	u := testUniverse(t, 25)
	_, ts := newTestServer(t, Config{})
	body := func(id string) []byte {
		data, err := json.Marshal(createSessionRequest{Universe: u, Problem: testProblemDoc(), ID: id})
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	for _, c := range []struct {
		header, bodyID string
		status         int
		id             string
	}{
		{"g5", "", http.StatusCreated, "g5"},
		{"g6", "g6", http.StatusCreated, "g6"},
		{"g7", "other", http.StatusBadRequest, ""},
		{"s7", "", http.StatusBadRequest, ""},
		{"has space", "", http.StatusBadRequest, ""},
		{"g5", "", http.StatusConflict, ""},
	} {
		resp, out := postRaw(t, ts.URL+"/v1/sessions", body(c.bodyID), map[string]string{schemaio.SessionIDHeader: c.header})
		if resp.StatusCode != c.status {
			t.Errorf("header %q, body id %q: %d %s, want %d", c.header, c.bodyID, resp.StatusCode, out, c.status)
			continue
		}
		if c.id == "" {
			continue
		}
		var info sessionInfo
		if err := json.Unmarshal(out, &info); err != nil {
			t.Fatal(err)
		}
		if info.ID != c.id {
			t.Errorf("header %q, body id %q: session %q, want %q", c.header, c.bodyID, info.ID, c.id)
		}
	}
}

// TestTrailingContentRefused keeps trailing bytes after a request's
// JSON value a 400 on every WAL-bound body: create, solve and churn.
func TestTrailingContentRefused(t *testing.T) {
	u := testUniverse(t, 25)
	_, ts := newTestServer(t, Config{})
	id := createSession(t, ts.URL, u, testProblemDoc())
	create, err := json.Marshal(createSessionRequest{Universe: u, Problem: testProblemDoc()})
	if err != nil {
		t.Fatal(err)
	}
	churn := []byte(`{"mutations":[{"op":"remove","id":3}]}`)
	for _, c := range []struct {
		method, path string
		body         []byte
	}{
		{http.MethodPost, "/v1/sessions", create},
		{http.MethodPost, "/v1/sessions/" + id + "/solve", []byte(`{}`)},
		{http.MethodPatch, "/v1/sessions/" + id + "/universe", churn},
	} {
		// The last, empty tail is the control: the body alone succeeds.
		for _, tail := range []string{`{}`, ` x`, ` }`, `]`, "\n{\"a\":1}", ""} {
			req, err := http.NewRequest(c.method, ts.URL+c.path, bytes.NewReader(append(append([]byte(nil), c.body...), tail...)))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			out, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if tail == "" && resp.StatusCode >= 300 {
				t.Errorf("%s %s without trailing content: %d %s", c.method, c.path, resp.StatusCode, out)
			}
			if tail != "" && resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s %s with trailing %q: %d %s, want 400", c.method, c.path, tail, resp.StatusCode, out)
			}
		}
	}
}

// TestCreateWALBytesCompactAndPretty proves a create body reaches the
// WAL in its json.Compact form whether it arrives compact or
// pretty-printed, and that both replay to the same session.
func TestCreateWALBytesCompactAndPretty(t *testing.T) {
	u := testUniverse(t, 25)
	compact, err := json.Marshal(createSessionRequest{Universe: u, Problem: testProblemDoc(), ID: "p1"})
	if err != nil {
		t.Fatal(err)
	}
	pretty, err := json.MarshalIndent(createSessionRequest{Universe: u, Problem: testProblemDoc(), ID: "p1"}, " ", "\t")
	if err != nil {
		t.Fatal(err)
	}
	pretty = append(append([]byte("\r\n "), pretty...), "\n\n"...)
	// The WAL envelope embeds the create bytes as a json.RawMessage,
	// which json.Marshal re-emits compact.
	want, err := json.Marshal(json.RawMessage(compact))
	if err != nil {
		t.Fatal(err)
	}

	var histories [][]byte
	for _, body := range [][]byte{compact, pretty} {
		dir := t.TempDir()
		_, ts, stop := openDurableServer(t, Config{WALDir: dir})
		if resp, out := postRaw(t, ts.URL+"/v1/sessions", body, nil); resp.StatusCode != http.StatusCreated {
			t.Fatalf("create: %d %s", resp.StatusCode, out)
		}
		solveWith(t, ts.URL, "p1", solveRequest{})
		stop()

		l, rec, err := wal.Open(wal.Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if len(rec.Records) == 0 || rec.Records[0].Type != schemaio.WALTypeCreate {
			t.Fatalf("first WAL record is not a create: %+v", rec.Records)
		}
		if got := rec.Records[0].Data; !bytes.Equal(got, want) {
			t.Errorf("WAL create Data differs from the compact form:\n got %.120s\nwant %.120s", got, want)
		}

		_, ts2, _ := openDurableServer(t, Config{WALDir: dir})
		var h historyDoc
		if resp := getJSON(t, ts2.URL+"/v1/sessions/p1/history", &h); resp.StatusCode != http.StatusOK || len(h.Iterations) != 1 {
			t.Fatalf("recovered history: %d, %d iterations", resp.StatusCode, len(h.Iterations))
		}
		histories = append(histories, canonicalIterations(t, h.Iterations))
	}
	if !bytes.Equal(histories[0], histories[1]) {
		t.Error("compact and pretty-printed creates replay to different sessions")
	}
}
