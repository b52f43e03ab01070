package schemaio

// Request-body plumbing shared by the router and the shard: the body
// bound, the header a router-minted session ID rides in, the bounded
// body read and the strict decode.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// MaxBodyBytes bounds every request body the router and the shard read.
// Universes can be large, but not unbounded; the router buffers whole
// creates (to find the session ID and to retry minted-ID collisions),
// so this is also its allocation bound.
const MaxBodyBytes = 64 << 20

// SessionIDHeader carries a router-minted session ID to the shard on
// create, so the create body is forwarded byte for byte. A shard honours
// it like a body "id" (same validation; a body "id" that disagrees is a
// 400). The router drops the header from every request it proxies and
// sets it only on the creates it mints, so clients cannot steer
// placement with it.
const SessionIDHeader = "X-Ube-Session-Id"

// ErrBodyTooLarge reports a request body longer than ReadBody's limit.
var ErrBodyTooLarge = errors.New("request body too large")

// ReadBody reads a request body of at most limit bytes. The buffer is
// sized from the declared Content-Length (declared ≤ 0 or over the
// limit: unknown, start small), so a multi-megabyte create body lands
// in one allocation instead of io.ReadAll's doubling. The declaration
// is only a size hint: a body longer than it is still read, and held
// to limit.
func ReadBody(r io.Reader, declared, limit int64) ([]byte, error) {
	size := int64(512)
	if declared > 0 && declared <= limit {
		size = declared + 1 // room for the read that reports EOF
	}
	lr := io.LimitReader(r, limit+1)
	b := make([]byte, 0, size)
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := lr.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if int64(len(b)) > limit {
			return nil, ErrBodyTooLarge
		}
		if errors.Is(err, io.EOF) {
			return b, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// DecodeStrict unmarshals one JSON value into v, rejecting unknown
// fields and anything but whitespace after the value (dec.More alone
// would miss a stray '}' or ']').
func DecodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if len(bytes.TrimLeft(data[dec.InputOffset():], " \t\r\n")) > 0 {
		return fmt.Errorf("trailing data after the JSON value")
	}
	return nil
}
