package router

import (
	"bytes"
	"encoding/base64"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

// syntheticCreateBody builds a create body shaped like the §7.1 catalog
// create: 700 sources, each with a handful of attributes and a base64
// signature, about 2 MB in all.
func syntheticCreateBody() []byte {
	sig := base64.StdEncoding.EncodeToString(bytes.Repeat([]byte{0x5a, 0xa5, 0x3c}, 750))
	var b bytes.Buffer
	b.WriteString(`{"universe":{"sources":[`)
	for i := 0; i < 700; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"name":"source-%d.example.com","attributes":["title","author","isbn %d","price","publisher"],"cardinality":%d,"signature":%q}`, i, i, 1000+i, sig)
	}
	b.WriteString(`]},"problem":{"maxSources":20,"theta":0.65,"beta":2,"seed":1}}`)
	return b.Bytes()
}

// BenchmarkRouterCreate measures the router's share of a minted create:
// reading the ≈2 MB body, scanning it for a client ID, and forwarding
// it to a shard stand-in that drains the body and answers 201.
func BenchmarkRouterCreate(b *testing.B) {
	body := syntheticCreateBody()
	shard := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		w.WriteHeader(http.StatusCreated)
	}))
	defer shard.Close()
	rt, err := New(Config{Shards: []string{shard.URL}, ProbeInterval: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Close()
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/sessions", bytes.NewReader(body))
		w := httptest.NewRecorder()
		rt.ServeHTTP(w, req)
		if w.Code != http.StatusCreated {
			b.Fatalf("create: %d %s", w.Code, w.Body.Bytes())
		}
	}
}
