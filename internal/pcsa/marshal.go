package pcsa

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
)

// The binary layout is: magic "PCSA", u32 nmaps, u64 seed, then nmaps
// little-endian u64 bitmap words.
var magic = [4]byte{'P', 'C', 'S', 'A'}

// MarshalBinary implements encoding.BinaryMarshaler.
func (s *Sketch) MarshalBinary() ([]byte, error) {
	buf := make([]byte, 4+4+8+8*len(s.maps))
	copy(buf[:4], magic[:])
	binary.LittleEndian.PutUint32(buf[4:8], uint32(s.nmaps))
	binary.LittleEndian.PutUint64(buf[8:16], s.seed)
	for i, w := range s.maps {
		binary.LittleEndian.PutUint64(buf[16+8*i:], w)
	}
	return buf, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (s *Sketch) UnmarshalBinary(data []byte) error {
	nmaps, seed, err := readHeader(data, len(data))
	if err != nil {
		return err
	}
	ns := newSketch(nmaps, seed)
	for i := range ns.maps {
		ns.maps[i] = binary.LittleEndian.Uint64(data[16+8*i:])
	}
	*s = *ns
	return nil
}

// readHeader checks a binary header against the payload size it heads,
// in a fixed order — magic, then nmaps, then the size — before anything
// is allocated, so a short payload that claims 65 536 maps costs no
// 512 KiB.
func readHeader(hdr []byte, size int) (nmaps int, seed uint64, err error) {
	if len(hdr) < 16 || [4]byte(hdr[:4]) != magic {
		return 0, 0, fmt.Errorf("pcsa: bad sketch header")
	}
	nmaps = int(binary.LittleEndian.Uint32(hdr[4:8]))
	if err := checkNmaps(nmaps); err != nil {
		return 0, 0, err
	}
	if size != 16+8*nmaps {
		return 0, 0, fmt.Errorf("pcsa: sketch payload is %d bytes, want %d", size, 16+8*nmaps)
	}
	return nmaps, binary.LittleEndian.Uint64(hdr[8:16]), nil
}

// MarshalJSON encodes the sketch as a base64 string of its binary form, so
// signatures embed compactly in universe JSON files.
func (s *Sketch) MarshalJSON() ([]byte, error) {
	b, err := s.MarshalBinary()
	if err != nil {
		return nil, err
	}
	return json.Marshal(base64.StdEncoding.EncodeToString(b))
}

// UnmarshalJSON decodes the base64 form produced by MarshalJSON. A plain
// string token — quoted, nothing escaped, which is all MarshalJSON
// writes — decodes straight from data; any other token takes the general
// path through encoding/json. Both accept and refuse the same tokens.
func (s *Sketch) UnmarshalJSON(data []byte) error {
	if tok, ok := plainString(data); ok {
		return s.decodeBase64(tok)
	}
	var enc string
	if err := json.Unmarshal(data, &enc); err != nil {
		return err
	}
	b, err := base64.StdEncoding.DecodeString(enc)
	if err != nil {
		return fmt.Errorf("pcsa: bad base64 sketch: %w", err)
	}
	return s.UnmarshalBinary(b)
}

// plainString returns the inside of a quoted token that base64 can
// decode in place with the general path's outcome: one with no
// backslash (an escape the general path would undo) and no CR or LF
// (bytes base64 skips but a JSON string may not hold raw). Every other
// byte a JSON string may not hold raw, base64 refuses too.
func plainString(data []byte) ([]byte, bool) {
	if len(data) < 2 || data[0] != '"' || data[len(data)-1] != '"' {
		return nil, false
	}
	tok := data[1 : len(data)-1]
	for _, c := range []byte{'\\', '\r', '\n'} {
		if bytes.IndexByte(tok, c) >= 0 {
			return nil, false
		}
	}
	return tok, true
}

// chunkChars base64 characters decode to 24 bytes: the header and the
// first word, then three words per chunk. Decoding a token chunk by
// chunk into a stack buffer needs no payload allocation, and the header
// is checked before the maps are made.
const chunkChars = 32

// decodeBase64 decodes a padded standard-base64 token (no line breaks)
// of a sketch's binary form into s.
func (s *Sketch) decodeBase64(tok []byte) error {
	var buf [chunkChars / 4 * 3]byte
	n, err := decodeChunk(buf[:], tok, 0)
	if err != nil {
		return err
	}
	// The payload size the token implies: three bytes per quantum, less
	// the padding. A token whose padding lies is refused by the decode.
	size := len(tok) / 4 * 3
	for i := len(tok) - 1; i >= len(tok)-2 && i >= 0 && tok[i] == '='; i-- {
		size--
	}
	nmaps, seed, err := readHeader(buf[:n], size)
	if err != nil {
		return err
	}
	ns := newSketch(nmaps, seed)
	words, got := buf[16:n], 0
	for off := 0; ; {
		for ; len(words) >= 8 && got < nmaps; words = words[8:] {
			ns.maps[got] = binary.LittleEndian.Uint64(words)
			got++
		}
		if off += chunkChars; off >= len(tok) {
			break
		}
		if n, err = decodeChunk(buf[:], tok, off); err != nil {
			return err
		}
		words = buf[:n]
	}
	// The size check fixed the total; this backs up the arithmetic.
	if got != nmaps || len(words) != 0 {
		return fmt.Errorf("pcsa: bad base64 sketch: %w", base64.CorruptInputError(len(tok)))
	}
	*s = *ns
	return nil
}

// decodeChunk decodes the chunk of tok that starts at off. A chunk
// before the last must fill dst: padding ends a token, so a short one
// means padding in the middle.
func decodeChunk(dst, tok []byte, off int) (int, error) {
	end := min(off+chunkChars, len(tok))
	n, err := base64.StdEncoding.Decode(dst, tok[off:end])
	if at, ok := err.(base64.CorruptInputError); ok {
		err = at + base64.CorruptInputError(off) // as an offset into tok
	} else if err == nil && end < len(tok) && n < len(dst) {
		err = base64.CorruptInputError(end)
	}
	if err != nil {
		return 0, fmt.Errorf("pcsa: bad base64 sketch: %w", err)
	}
	return n, nil
}
