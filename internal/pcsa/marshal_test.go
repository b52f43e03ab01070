package pcsa

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// header builds a 16-byte binary sketch header.
func header(mag string, nmaps uint32, seed uint64) []byte {
	h := make([]byte, 16)
	copy(h, mag)
	binary.LittleEndian.PutUint32(h[4:8], nmaps)
	binary.LittleEndian.PutUint64(h[8:16], seed)
	return h
}

// quoted is the JSON string token MarshalJSON writes for binary form b.
func quoted(b []byte) []byte {
	return []byte(`"` + base64.StdEncoding.EncodeToString(b) + `"`)
}

// TestUnmarshalHeaderPrecedence pins the order in which both decode
// paths refuse a bad header: magic, then nmaps, then the payload length.
func TestUnmarshalHeaderPrecedence(t *testing.T) {
	for _, tc := range []struct {
		name string
		data []byte
		want string
	}{
		{"bad magic beats bad nmaps and length", header("PCSB", 3, 0), "bad sketch header"},
		{"bad nmaps beats length", header("PCSA", 3, 0), "nmaps must be a power of two"},
		{"length", header("PCSA", 1<<16, 0), "sketch payload is 16 bytes, want 524304"},
		{"short", []byte("PCSA"), "bad sketch header"},
	} {
		var s Sketch
		if err := s.UnmarshalBinary(tc.data); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: UnmarshalBinary err = %v, want %q", tc.name, err, tc.want)
		}
		if err := s.UnmarshalJSON(quoted(tc.data)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: UnmarshalJSON err = %v, want %q", tc.name, err, tc.want)
		}
	}
}

// TestUnmarshalChecksLengthBeforeAllocating holds both decode paths to
// refusing a 16-byte header that claims 65 536 maps with no more
// allocations than building the length error itself takes: the 512 KiB
// of maps must never be made. testing.AllocsPerRun counts every
// goroutine's mallocs, so another goroutine can only add to a reading;
// each side is the least of several readings. A decode path that made
// the maps would allocate them on every call, in every reading.
func TestUnmarshalChecksLengthBeforeAllocating(t *testing.T) {
	hdr := header("PCSA", 1<<16, 0)
	tok := quoted(hdr)
	want := 16 + 8*int(binary.LittleEndian.Uint32(hdr[4:8]))
	errAllocs := leastAllocs(func() {
		_ = fmt.Errorf("pcsa: sketch payload is %d bytes, want %d", len(hdr), want)
	})
	var s Sketch
	if got := leastAllocs(func() { _ = s.UnmarshalBinary(hdr) }); got > errAllocs {
		t.Errorf("UnmarshalBinary: %v allocations to refuse the header, the error alone takes %v", got, errAllocs)
	}
	if got := leastAllocs(func() { _ = s.UnmarshalJSON(tok) }); got > errAllocs {
		t.Errorf("UnmarshalJSON: %v allocations to refuse the header, the error alone takes %v", got, errAllocs)
	}
}

// leastAllocs is the least of five testing.AllocsPerRun readings of f.
func leastAllocs(f func()) float64 {
	least := testing.AllocsPerRun(100, f)
	for range 4 {
		least = min(least, testing.AllocsPerRun(100, f))
	}
	return least
}

// unmarshalJSONGeneral is the general decode path, which every token
// took before plain tokens decoded in place: unescape the string, decode
// the base64, decode the binary form.
func unmarshalJSONGeneral(data []byte) (*Sketch, error) {
	var enc string
	if err := json.Unmarshal(data, &enc); err != nil {
		return nil, err
	}
	b, err := base64.StdEncoding.DecodeString(enc)
	if err != nil {
		return nil, err
	}
	var s Sketch
	if err := s.UnmarshalBinary(b); err != nil {
		return nil, err
	}
	return &s, nil
}

// FuzzSketchJSON is the differential for UnmarshalJSON: on every token
// it gives the same sketch as the general path, or both refuse.
func FuzzSketchJSON(f *testing.F) {
	for _, c := range []struct {
		nmaps int
		n     int
	}{{1, 0}, {2, 3}, {4, 50}, {8, 500}, {64, 5000}, {DefaultMaps, 20000}} {
		s := MustNew(c.nmaps, 11)
		for i := 0; i < c.n; i++ {
			s.AddUint64(uint64(i))
		}
		tok, err := s.MarshalJSON()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(tok)
		f.Add(bytes.Replace(tok, []byte("/"), []byte(`\/`), -1))
		f.Add(bytes.Replace(tok, []byte("A"), []byte("\\"+"u0041"), 1))
		f.Add(tok[:len(tok)/2])                                                             // cut mid-token
		f.Add(append(append([]byte(nil), tok[:len(tok)-5]...), '"'))                        // truncated payload
		f.Add(append(append([]byte(nil), tok[:len(tok)-1]...), '=', '"'))                   // extra padding
		f.Add(bytes.Replace(tok, []byte("="), nil, -1))                                     // padding stripped
		f.Add(append(append([]byte(nil), tok[:9]...), append([]byte{0xff}, tok[9:]...)...)) // invalid UTF-8
		if len(tok) > 40 {                                                                  // padding mid-token, at a chunk edge
			f.Add(append(append([]byte(nil), tok[:33]...), append([]byte("=="), tok[33:]...)...))
		}
	}
	for _, tok := range []string{`null`, `123`, `true`, `{}`, `[]`, `""`, `"`, ` "UENTQQ==" `, "\"UENT\nQQ==\"", "\"UENT\rQQ==\"", "\"UENT\tQQ==\""} {
		f.Add([]byte(tok))
	}
	f.Add(quoted(header("PCSA", 1<<16, 0)))
	f.Add(quoted(header("PCSA", 3, 0)))

	f.Fuzz(func(t *testing.T, data []byte) {
		var got Sketch
		gerr := got.UnmarshalJSON(data)
		want, werr := unmarshalJSONGeneral(data)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("token %q: UnmarshalJSON err %v, general path err %v", data, gerr, werr)
		}
		if gerr != nil {
			return
		}
		gb, _ := got.MarshalBinary()
		wb, _ := want.MarshalBinary()
		if !bytes.Equal(gb, wb) || got.shift != want.shift {
			t.Fatalf("token %q: UnmarshalJSON gave %x, general path %x", data, gb, wb)
		}
	})
}
