package strsim

import (
	"testing"

	"ube/internal/synth"
)

// mustMatrix builds the dense matrix for a test vocabulary, panicking on
// the (impossible at test sizes) over-limit error.
func mustMatrix(c *Cache) *Matrix {
	m, err := c.BuildMatrix()
	if err != nil {
		panic(err)
	}
	return m
}

func TestMatrixScoresMatchCache(t *testing.T) {
	c := NewCache(nil)
	names := []string{"title", "book_title", "author", "isbn", "price"}
	ids := make([]int, len(names))
	for i, n := range names {
		ids[i] = c.Intern(n)
	}
	if c.Measure() == nil {
		t.Fatal("cache has no measure")
	}
	m := mustMatrix(c)
	if m.Len() != len(names) {
		t.Fatalf("matrix covers %d names, want %d", m.Len(), len(names))
	}
	if m.SizeBytes() != 4*len(names)*len(names) {
		t.Errorf("SizeBytes = %d", m.SizeBytes())
	}
	for _, a := range ids {
		//ube:float-exact the diagonal is stored as an exact 1
		if m.Score(a, a) != 1 {
			t.Errorf("self score of %d = %v", a, m.Score(a, a))
		}
		for _, b := range ids {
			//ube:float-exact both cells are the same stored float32
			if m.Score(a, b) != m.Score(b, a) {
				t.Errorf("asymmetric score (%d,%d)", a, b)
			}
			// The float32 table must agree with direct scoring to that
			// precision.
			want := c.Score(a, b)
			if diff := m.Score(a, b) - want; diff > 1e-6 || diff < -1e-6 {
				t.Errorf("matrix score (%d,%d) = %v, cache says %v", a, b, m.Score(a, b), want)
			}
		}
	}
}

func TestMatrixNeighbors(t *testing.T) {
	c := NewCache(nil)
	for _, n := range []string{"title", "book_title", "zzz_unrelated"} {
		c.Intern(n)
	}
	m := mustMatrix(c)
	nbr := m.Neighbors(0.2)
	if len(nbr) != m.Len() {
		t.Fatalf("neighbor lists = %d, want %d", len(nbr), m.Len())
	}
	for i, row := range nbr {
		found := false
		for _, j := range row {
			if j == i {
				found = true
			}
			if m.Score(i, j) < 0.2 {
				t.Errorf("neighbor (%d,%d) below theta: %v", i, j, m.Score(i, j))
			}
		}
		if !found {
			t.Errorf("name %d missing from its own neighbor list", i)
		}
	}
}

func TestMatrixScorePanicsOnLateIntern(t *testing.T) {
	c := NewCache(nil)
	c.Intern("title")
	m := mustMatrix(c)
	late := c.Intern("author")
	defer func() {
		if recover() == nil {
			t.Error("Score on a post-build ID did not panic")
		}
	}()
	m.Score(0, late)
}

func TestExtendMatrixRefusesForeignMatrix(t *testing.T) {
	big, small := NewCache(nil), NewCache(nil)
	for _, n := range []string{"title", "author", "isbn"} {
		big.Intern(n)
	}
	small.Intern("title")
	if m, err := small.ExtendMatrix(mustMatrix(big)); err == nil {
		t.Fatalf("growing a 3-name matrix over a 1-name cache returned %d names, want an error", m.Len())
	}
}

// matrixSink keeps benchmarked builds live.
var matrixSink *Matrix

// BenchmarkBuildMatrix builds the dense matrix over the vocabulary of a
// 600-source synth.GenerateLarge universe with 96 concepts under a nearly
// flat popularity curve (about 360 names).
func BenchmarkBuildMatrix(b *testing.B) {
	lc := synth.DefaultLargeConfig(600)
	lc.Concepts, lc.ZipfS = 96, 1.01
	u, _, err := synth.GenerateLarge(lc)
	if err != nil {
		b.Fatal(err)
	}
	c := NewCache(nil)
	for _, s := range u.Sources {
		for _, name := range s.Attributes {
			c.Intern(name)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		matrixSink = mustMatrix(c)
	}
	b.ReportMetric(float64(c.Len()), "names")
}
