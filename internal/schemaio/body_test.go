package schemaio

import (
	"errors"
	"strings"
	"testing"
)

// TestReadBodyLimit holds a body to the limit whatever Content-Length
// declared: the declaration sizes the buffer, it never truncates the
// read or lifts the bound.
func TestReadBodyLimit(t *testing.T) {
	const limit = 16
	for _, c := range []struct {
		name     string
		body     string
		declared int64
		tooLarge bool
	}{
		{"exact declaration", "0123456789", 10, false},
		{"no declaration", "0123456789", -1, false},
		{"at the limit", strings.Repeat("x", limit), limit, false},
		{"longer than declared", "0123456789", 4, false},
		{"longer than declared and over the limit", strings.Repeat("x", limit+1), 4, true},
		{"declared over the limit", strings.Repeat("x", limit+5), limit + 5, true},
		{"undeclared over the limit", strings.Repeat("x", 3*limit), 0, true},
	} {
		got, err := ReadBody(strings.NewReader(c.body), c.declared, limit)
		if c.tooLarge {
			if !errors.Is(err, ErrBodyTooLarge) {
				t.Errorf("%s: err %v, want ErrBodyTooLarge", c.name, err)
			}
			continue
		}
		if err != nil || string(got) != c.body {
			t.Errorf("%s: read %q, %v; want %q", c.name, got, err, c.body)
		}
	}
}
