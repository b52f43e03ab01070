package strsim

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// blockVocab builds a deterministic mixed vocabulary of about n names:
// clusters of shared-core variants (pairs above the paper's θ), plus
// lexically unrelated random words and a few short/unicode edge cases.
func blockVocab(n int, seed int64) []string {
	r := rand.New(rand.NewSource(seed))
	letters := "abcdefghijklmnopqrstuvwxyz"
	word := func(k int) string {
		b := make([]byte, k)
		for i := range b {
			b[i] = letters[r.Intn(len(letters))]
		}
		return string(b)
	}
	suffixes := []string{"", "s", " id", " code", " number"}
	names := []string{"a", "ab", "é", "日本語", "x y"}
	for len(names) < n {
		core := word(6 + r.Intn(8))
		for _, suf := range suffixes[:1+r.Intn(len(suffixes))] {
			names = append(names, core+suf)
		}
	}
	return names[:n]
}

// exactPairs computes the reference θ-pair set: every unordered ID pair
// whose exact measure score, rounded through float32 like every stored
// table cell, reaches θ.
func exactPairs(c *Cache, theta float64) map[[2]int]bool {
	out := make(map[[2]int]bool)
	n := c.Len()
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			//ube:float-exact the float32 rounding is the table-inclusion contract under test
			if float64(float32(c.Score(a, b))) >= theta {
				out[[2]int{a, b}] = true
			}
		}
	}
	return out
}

// sparsePairs extracts the unordered above-θ pair set a sparse table holds.
func sparsePairs(sp *SparseScores, theta float64) map[[2]int]bool {
	out := make(map[[2]int]bool)
	for a, row := range sp.Neighbors(theta) {
		for _, b := range row {
			if a < b {
				out[[2]int{a, b}] = true
			}
		}
	}
	return out
}

// TestPrefixBlockingExactRecall: the prefix-filter mode is lossless — on
// mixed vocabularies, for both n-gram measures and several θ, the sparse
// table holds exactly the pairs the all-pairs scorer puts at or above θ
// (recall 1 by the prefix-filter argument, precision 1 by verification).
func TestPrefixBlockingExactRecall(t *testing.T) {
	for _, tc := range []struct {
		name    string
		measure Measure
	}{
		{"jaccard3", NewNGramJaccard(3)},
		{"dice3", NewNGramDice(3)},
		{"jaccard2", NewNGramJaccard(2)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewCache(tc.measure)
			for _, name := range blockVocab(600, 7) {
				c.Intern(name)
			}
			for _, theta := range []float64{0.3, 0.5, 0.65, 0.8, 0.95} {
				sp, stats, err := c.BuildSparse(theta, BlockConfig{})
				if err != nil {
					t.Fatalf("θ=%v: %v", theta, err)
				}
				want := exactPairs(c, theta)
				got := sparsePairs(sp, theta)
				if !reflect.DeepEqual(want, got) {
					t.Errorf("θ=%v: sparse holds %d pairs, exact scorer says %d", theta, len(got), len(want))
					for p := range want {
						if !got[p] {
							t.Errorf("θ=%v: missed pair %v (score %v)", theta, p, c.Score(p[0], p[1]))
						}
					}
				}
				if stats.Candidates < int64(len(want)) {
					t.Errorf("θ=%v: %d candidates cannot cover %d true pairs", theta, stats.Candidates, len(want))
				}
			}
		})
	}
}

// TestSparseMatchesMatrix: on a vocabulary where both tables exist, every
// Score the sparse table answers is bit-identical to the dense matrix —
// above θ from its own entries, below θ through the float32-rounded
// fallback — and the ≥θ adjacency agrees.
func TestSparseMatchesMatrix(t *testing.T) {
	c := NewCache(nil)
	for _, name := range blockVocab(300, 3) {
		c.Intern(name)
	}
	m := mustMatrix(c)
	theta := 0.5
	sp, _, err := c.BuildSparse(theta, BlockConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if sp.Len() != m.Len() {
		t.Fatalf("sparse covers %d names, matrix %d", sp.Len(), m.Len())
	}
	for a := 0; a < sp.Len(); a++ {
		for b := 0; b < sp.Len(); b++ {
			//ube:float-exact bit-identity of the two storage paths is the property under test
			if sp.Score(a, b) != m.Score(a, b) {
				t.Fatalf("Score(%d,%d): sparse %v, matrix %v", a, b, sp.Score(a, b), m.Score(a, b))
			}
		}
	}
	for _, th := range []float64{theta, 0.65, 0.9} {
		if !reflect.DeepEqual(m.Neighbors(th), sp.Neighbors(th)) {
			t.Errorf("Neighbors(%v) differ between matrix and sparse", th)
		}
	}
}

// TestSparseDeterminism: two independent builds produce identical stats
// and identical tables.
func TestSparseDeterminism(t *testing.T) {
	c1 := NewCache(nil)
	c2 := NewCache(nil)
	for _, name := range blockVocab(400, 5) {
		c1.Intern(name)
		c2.Intern(name)
	}
	sp1, st1, err := c1.BuildSparse(0.65, BlockConfig{})
	if err != nil {
		t.Fatal(err)
	}
	sp2, st2, err := c2.BuildSparse(0.65, BlockConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if st1 != st2 {
		t.Errorf("stats differ across builds: %+v vs %+v", st1, st2)
	}
	if sp1.NNZ() != sp2.NNZ() || !reflect.DeepEqual(sp1.Neighbors(0.65), sp2.Neighbors(0.65)) {
		t.Error("tables differ across builds")
	}
}

// TestSparseScoreContract: range panics, the stored diagonal, the
// float32-rounded sub-θ fallback, and SizeBytes accounting.
func TestSparseScoreContract(t *testing.T) {
	c := NewCache(nil)
	ids := make([]int, 0, 4)
	for _, n := range []string{"title", "titles", "author", "zzz unrelated"} {
		ids = append(ids, c.Intern(n))
	}
	sp, _, err := c.BuildSparse(0.65, BlockConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range ids {
		//ube:float-exact the diagonal is an exact stored 1
		if sp.Score(a, a) != 1 {
			t.Errorf("self score of %d = %v", a, sp.Score(a, a))
		}
	}
	// "author" vs "title" is far below θ: the answer must come from the
	// exact measure rounded through float32, matching a dense cell.
	//ube:float-exact fallback must round like a stored float32 cell
	if got, want := sp.Score(ids[0], ids[2]), float64(float32(c.Score(ids[0], ids[2]))); got != want {
		t.Errorf("sub-θ fallback = %v, want %v", got, want)
	}
	if sp.Theta() != 0.65 {
		t.Errorf("Theta = %v", sp.Theta())
	}
	if want := 4 * (sp.Len() + 1 + 2*sp.NNZ()); sp.SizeBytes() != want {
		t.Errorf("SizeBytes = %d, want %d", sp.SizeBytes(), want)
	}
	defer func() {
		if recover() == nil {
			t.Error("Score on an out-of-range ID did not panic")
		}
	}()
	sp.Score(0, sp.Len())
}

// TestSparseNeighborsPanicsBelowBuildTheta: the table only holds ≥build-θ
// entries, so asking for a looser adjacency must refuse loudly instead of
// silently under-reporting.
func TestSparseNeighborsPanicsBelowBuildTheta(t *testing.T) {
	c := NewCache(nil)
	c.Intern("title")
	c.Intern("titles")
	sp, _, err := c.BuildSparse(0.65, BlockConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("Neighbors below the build θ did not panic")
		}
	}()
	sp.Neighbors(0.5)
}

// TestBuildSparseErrors: θ outside (0,1] and measures without a sound
// blocking scheme are rejected.
func TestBuildSparseErrors(t *testing.T) {
	c := NewCache(nil)
	c.Intern("title")
	for _, theta := range []float64{0, -0.5, 1.5} {
		if _, _, err := c.BuildSparse(theta, BlockConfig{}); err == nil {
			t.Errorf("θ=%v: no error", theta)
		}
	}
	tok := NewCache(TokenJaccard{})
	tok.Intern("title")
	_, _, err := tok.BuildSparse(0.65, BlockConfig{})
	if !errors.Is(err, ErrUnsupportedMeasure) {
		t.Errorf("token measure: err = %v, want ErrUnsupportedMeasure", err)
	}
}

// TestBuildMatrixGuard: the dense table refuses vocabularies whose n²
// float32 cells would be a silent gigabyte-scale allocation.
func TestBuildMatrixGuard(t *testing.T) {
	c := NewCache(nil)
	for i := 0; i <= MaxMatrixNames; i++ {
		c.Intern(fmt.Sprintf("name %d", i))
	}
	if c.Len() != MaxMatrixNames+1 {
		t.Fatalf("interned %d names", c.Len())
	}
	if _, err := c.BuildMatrix(); err == nil {
		t.Fatal("BuildMatrix over the limit did not error")
	}
	// The sparse path is the documented escape hatch and must accept the
	// same vocabulary.
	if _, _, err := c.BuildSparse(0.65, BlockConfig{}); err != nil {
		t.Fatalf("BuildSparse on the same vocabulary: %v", err)
	}
}

func BenchmarkBlockingBuild(b *testing.B) {
	c := NewCache(nil)
	for _, name := range blockVocab(4096, 9) {
		c.Intern(name)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.BuildSparse(0.65, BlockConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}
