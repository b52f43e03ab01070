package server

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"

	"ube/internal/engine"
	"ube/internal/model"
	"ube/internal/schemaio"
	"ube/internal/synth"
)

// catalogBody is a create request over the §7.1 catalog: 700 sources
// with 256-map signatures (synth.DefaultConfig, seed 1), about 2 MB, as
// a serving workload sends it. Built once per test binary.
var catalogBody = sync.OnceValues(func() ([]byte, error) {
	u, _, err := synth.Generate(synth.DefaultConfig())
	if err != nil {
		return nil, err
	}
	p := engine.DefaultProblem()
	pd, err := schemaio.EncodeProblem(&p)
	if err != nil {
		return nil, err
	}
	return json.Marshal(createSessionRequest{Universe: &model.Universe{Sources: u.Sources}, Problem: pd})
})

func benchCatalogBody(b *testing.B) []byte {
	b.Helper()
	body, err := catalogBody()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	return body
}

// BenchmarkCreateDecode times a shard's only parse of a create body:
// the strict decode into createSessionRequest, sketches included.
func BenchmarkCreateDecode(b *testing.B) {
	body := benchCatalogBody(b)
	for i := 0; i < b.N; i++ {
		var req createSessionRequest
		if err := schemaio.DecodeStrict(body, &req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncodeWALRecord times the create's WAL envelope: the body
// embedded, compacted and checked, in a session.create record.
func BenchmarkEncodeWALRecord(b *testing.B) {
	body := benchCatalogBody(b)
	// A pretty-printed body is what a client may send; the record holds
	// it compact either way.
	var pretty bytes.Buffer
	if err := json.Indent(&pretty, body, "", "  "); err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		data []byte
	}{{"compact", body}, {"pretty", pretty.Bytes()}} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(c.data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rec := schemaio.WALRecordDoc{Seq: uint64(i + 1), Type: schemaio.WALTypeCreate, Session: "s1", TS: 1, Data: c.data}
				if _, err := schemaio.EncodeWALRecord(&rec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
