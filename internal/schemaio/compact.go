package schemaio

import "bytes"

// A validating JSON compactor for the WAL envelope's embedded payload.
// json.Marshal re-emits a json.RawMessage through encoding/json's
// scanner one byte and one state-function call at a time; a create's
// 2 MB universe body is mostly base64 sketch strings, which this copies
// through a table in bulk.

// maxCompactDepth is encoding/json's nesting limit: an array or object
// opened at a deeper level is refused.
const maxCompactDepth = 10000

// strPlain marks the bytes a string copies through unchanged: anything
// but the quote, the backslash, control bytes, the HTML-sensitive <, >
// and &, and 0xE2, which may start U+2028 or U+2029.
var strPlain = func() (t [256]bool) {
	for c := 0x20; c < 256; c++ {
		t[c] = true
	}
	for _, c := range []byte{'"', '\\', '<', '>', '&', 0xE2} {
		t[c] = false
	}
	return t
}()

const hexDigits = "0123456789abcdef"

// appendCompact appends src to dst as json.Marshal(json.RawMessage(src))
// renders it: whitespace outside strings dropped; <, >, & and U+2028,
// U+2029 inside strings rewritten as six-byte \u escapes; every other
// byte, escapes and numbers included, as it came. It refuses (ok false,
// dst returned as given) exactly the inputs encoding/json's scanner
// refuses: anything but one JSON value with optional surrounding
// whitespace, or nesting deeper than maxCompactDepth. Invalid UTF-8
// inside strings passes through, as the scanner lets it.
func appendCompact(dst, src []byte) (out []byte, ok bool) {
	c := compactor{src: src, dst: dst}
	c.space()
	if !c.value(0) {
		return dst, false
	}
	c.space()
	if c.i != len(src) {
		return dst, false
	}
	return c.dst, true
}

type compactor struct {
	src []byte
	i   int
	dst []byte
}

func (c *compactor) space() {
	for ; c.i < len(c.src); c.i++ {
		switch c.src[c.i] {
		case ' ', '\t', '\r', '\n':
		default:
			return
		}
	}
}

// take copies the next byte if it is b.
func (c *compactor) take(b byte) bool {
	if c.i >= len(c.src) || c.src[c.i] != b {
		return false
	}
	c.dst = append(c.dst, b)
	c.i++
	return true
}

// value compacts the value at c.i, which sits inside depth open arrays
// and objects.
func (c *compactor) value(depth int) bool {
	if c.i >= len(c.src) {
		return false
	}
	switch b := c.src[c.i]; {
	case b == '"':
		return c.string()
	case b == '{':
		return c.container('}', depth+1)
	case b == '[':
		return c.container(']', depth+1)
	case b == '-' || '0' <= b && b <= '9':
		return c.number()
	case b == 't':
		return c.literal("true")
	case b == 'f':
		return c.literal("false")
	case b == 'n':
		return c.literal("null")
	}
	return false
}

// container compacts the object or array at c.i, which closing ends:
// an object's members are a string, a colon and a value, an array's
// elements are values.
func (c *compactor) container(closing byte, depth int) bool {
	if depth > maxCompactDepth {
		return false
	}
	c.take(c.src[c.i])
	c.space()
	if c.take(closing) {
		return true
	}
	for {
		if closing == '}' {
			if c.i >= len(c.src) || c.src[c.i] != '"' || !c.string() {
				return false
			}
			c.space()
			if !c.take(':') {
				return false
			}
			c.space()
		}
		if !c.value(depth) {
			return false
		}
		c.space()
		if c.take(closing) {
			return true
		}
		if !c.take(',') {
			return false
		}
		c.space()
	}
}

// string compacts the string token at c.i. Runs of plain bytes are
// copied in bulk; escapes are checked and copied as written.
func (c *compactor) string() bool {
	s, i := c.src, c.i+1
	c.dst = append(c.dst, '"')
	for {
		start := i
		for i < len(s) && strPlain[s[i]] {
			i++
		}
		c.dst = append(c.dst, s[start:i]...)
		if i >= len(s) {
			return false
		}
		switch b := s[i]; {
		case b == '"':
			c.dst = append(c.dst, '"')
			c.i = i + 1
			return true
		case b == '\\':
			n := escapeLen(s[i:])
			if n == 0 {
				return false
			}
			c.dst = append(c.dst, s[i:i+n]...)
			i += n
		case b == '<' || b == '>' || b == '&':
			c.dst = append(c.dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			i++
		case b == 0xE2:
			// U+2028 is E2 80 A8, U+2029 E2 80 A9.
			if i+2 < len(s) && s[i+1] == 0x80 && s[i+2]&^1 == 0xA8 {
				c.dst = append(c.dst, '\\', 'u', '2', '0', '2', hexDigits[s[i+2]&0xF])
				i += 3
			} else {
				c.dst = append(c.dst, b)
				i++
			}
		default: // a control byte
			return false
		}
	}
}

// escapeLen is the length of the valid escape sequence that starts esc
// (esc[0] is the backslash), or 0 if there is none.
func escapeLen(esc []byte) int {
	if len(esc) < 2 {
		return 0
	}
	switch esc[1] {
	case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
		return 2
	case 'u':
		if len(esc) < 6 {
			return 0
		}
		for _, h := range esc[2:6] {
			if !('0' <= h && h <= '9' || 'a' <= h && h <= 'f' || 'A' <= h && h <= 'F') {
				return 0
			}
		}
		return 6
	}
	return 0
}

// number copies the number at c.i after checking it against JSON's
// grammar: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?.
func (c *compactor) number() bool {
	s, i := c.src, c.i
	if s[i] == '-' {
		i++
	}
	switch {
	case i < len(s) && s[i] == '0':
		i++
	case i < len(s) && '1' <= s[i] && s[i] <= '9':
		i = digits(s, i+1)
	default:
		return false
	}
	if i < len(s) && s[i] == '.' {
		j := digits(s, i+1)
		if j == i+1 {
			return false
		}
		i = j
	}
	if i < len(s) && (s[i] == 'e' || s[i] == 'E') {
		i++
		if i < len(s) && (s[i] == '+' || s[i] == '-') {
			i++
		}
		j := digits(s, i)
		if j == i {
			return false
		}
		i = j
	}
	c.dst = append(c.dst, s[c.i:i]...)
	c.i = i
	return true
}

// digits returns the index of the first non-digit in s at or after i.
func digits(s []byte, i int) int {
	for i < len(s) && '0' <= s[i] && s[i] <= '9' {
		i++
	}
	return i
}

func (c *compactor) literal(lit string) bool {
	if !bytes.HasPrefix(c.src[c.i:], []byte(lit)) {
		return false
	}
	c.dst = append(c.dst, lit...)
	c.i += len(lit)
	return true
}
