package strsim

import (
	"math"
	"slices"
	"strings"
	"testing"
)

// FuzzNormalize checks that normalization is idempotent and produces only
// lowercase alphanumerics and single spaces.
func FuzzNormalize(f *testing.F) {
	f.Add("Author Name")
	f.Add("  ___--  ")
	f.Add("Prénom")
	f.Add("ISBN#13")
	f.Fuzz(func(t *testing.T, s string) {
		n := Normalize(s)
		if Normalize(n) != n {
			t.Fatalf("not idempotent: %q -> %q -> %q", s, n, Normalize(n))
		}
		for i, r := range n {
			if r == ' ' {
				if i == 0 || i == len(n)-1 {
					t.Fatalf("leading/trailing space in %q", n)
				}
				continue
			}
		}
	})
}

// FuzzLevenshtein checks the fast-path edit distance (prefix/suffix
// trimming, ASCII byte DP) against the reference two-row DP on arbitrary
// inputs, plus the metric properties the fast paths could plausibly
// break: symmetry, identity, and the rune-count bounds. Note the
// converse of identity does not hold for invalid UTF-8 — distinct byte
// strings can decode to equal rune sequences via U+FFFD — so distance 0
// between unequal strings is not asserted against.
func FuzzLevenshtein(f *testing.F) {
	f.Add("book title", "full title")
	f.Add("isbn", "isbn number")
	f.Add("", "x")
	f.Add("Prénom", "Prenom")
	f.Add("aaaa", "aa")
	f.Add("\xff\xfe", "\xfd")
	f.Fuzz(func(t *testing.T, a, b string) {
		d := Levenshtein(a, b)
		if ref := levenshteinRef(a, b); d != ref {
			t.Fatalf("Levenshtein(%q,%q) = %d, reference says %d", a, b, d, ref)
		}
		if rev := Levenshtein(b, a); d != rev {
			t.Fatalf("asymmetric on (%q,%q): %d vs %d", a, b, d, rev)
		}
		if Levenshtein(a, a) != 0 {
			t.Fatalf("self-distance of %q is nonzero", a)
		}
		la, lb := len([]rune(a)), len([]rune(b))
		lo, hi := la-lb, max(la, lb)
		if lo < 0 {
			lo = -lo
		}
		if d < lo || d > hi {
			t.Fatalf("Levenshtein(%q,%q) = %d outside [%d,%d]", a, b, d, lo, hi)
		}
	})
}

// FuzzMeasures checks the Measure contract on arbitrary inputs for every
// shipped measure: symmetry, range, self-similarity.
func FuzzMeasures(f *testing.F) {
	f.Add("title", "book title")
	f.Add("", "x")
	f.Add("a b c", "c b a")
	measures := []Measure{
		NewNGramJaccard(3), NewNGramDice(3), TokenJaccard{},
		TokenCosine{}, LevenshteinRatio{}, JaroWinkler{}, Exact{},
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		for _, m := range measures {
			s1, s2 := m.Score(a, b), m.Score(b, a)
			if s1 != s2 {
				t.Fatalf("%s: asymmetric on (%q,%q): %v vs %v", m.Name(), a, b, s1, s2)
			}
			if s1 < 0 || s1 > 1 {
				t.Fatalf("%s: out of range on (%q,%q): %v", m.Name(), a, b, s1)
			}
			if Normalize(a) != "" && m.Score(a, a) != 1 {
				t.Fatalf("%s: self-similarity of %q is %v", m.Name(), a, m.Score(a, a))
			}
		}
	})
}

// FuzzBlockingCandidates checks the blocking index's soundness guarantee
// on adversarial vocabularies: for every pair the exact scorer puts at or
// above θ (after the float32 rounding every stored cell gets), the
// prefix-filter sparse table must hold the pair — the index may verify
// extra candidates but can never miss a true pair. Inputs are five
// arbitrary names interned together with a fixed mixed base vocabulary,
// so the fuzzer exercises unicode, invalid UTF-8, and near-duplicate
// collisions against both measures' prefix schemes.
func FuzzBlockingCandidates(f *testing.F) {
	f.Add("title", "titles", "book title", "a", "")
	f.Add("é", "é", "日本語", "日本語版", "\xff\xfe")
	f.Add("x y z", "x_y_z", "X Y Z!", "xyz", "zyx")
	f.Add("aaaaaaaa", "aaaaaaab", "aaaa", "baaa", "aa")
	measures := []Measure{NewNGramJaccard(3), NewNGramDice(3), NewNGramJaccard(2)}
	thetas := []float64{0.3, 0.65, 0.9}
	f.Fuzz(func(t *testing.T, a, b, c, d, e string) {
		for _, m := range measures {
			cache := NewCache(m)
			for _, name := range []string{a, b, c, d, e,
				"title", "titles", "author name", "isbn number", "pub year"} {
				cache.Intern(name)
			}
			for _, theta := range thetas {
				sp, _, err := cache.BuildSparse(theta, BlockConfig{})
				if err != nil {
					t.Fatalf("%s θ=%v: %v", m.Name(), theta, err)
				}
				got := sparsePairs(sp, theta)
				for p := range exactPairs(cache, theta) {
					if !got[p] {
						t.Fatalf("%s θ=%v: index missed ≥θ pair %q/%q (score %v)",
							m.Name(), theta, cache.NameOf(p[0]), cache.NameOf(p[1]),
							cache.Score(p[0], p[1]))
					}
				}
			}
		}
	})
}

// FuzzMatrixExtend checks that growing a matrix is the same as building
// it whole: an arbitrary '|'-separated vocabulary is interned in two
// batches split at cut, and ExtendMatrix over the first batch's matrix
// must be bit-equal to BuildMatrix over all of it, and every off-diagonal
// cell bit-equal to float32(Measure.Score) of the pair. The n-gram
// measures, a zero-value one among them, cover the gram-ID kernel (names
// shorter than n, names that normalize to "", duplicate normalized
// forms); Levenshtein ratio covers the Measure.Score fallback.
func FuzzMatrixExtend(f *testing.F) {
	f.Add("title|book title|author|isbn", uint8(2))
	f.Add("id|by|x||  |ID|By_|title", uint8(3))
	f.Add("Author Name|author_name|author-name|AUTHOR NAME", uint8(1))
	f.Add("Prénom|prenom|名前|名前の読み|__|--", uint8(4))
	f.Add("aaaa|aaa|aa|a", uint8(0))
	f.Add("publication date|date of publication|pub date", uint8(9))
	measures := []Measure{NewNGramJaccard(3), NewNGramDice(3), NewNGramJaccard(2), &NGramDice{}, LevenshteinRatio{}}
	f.Fuzz(func(t *testing.T, vocab string, cut uint8) {
		names := strings.Split(vocab, "|")
		if len(names) > 64 {
			names = names[:64]
		}
		k := int(cut) % (len(names) + 1)
		for _, meas := range measures {
			grown := NewCache(meas)
			for _, name := range names[:k] {
				grown.Intern(name)
			}
			first := mustMatrix(grown)
			if same, err := grown.ExtendMatrix(first); err != nil || same != first {
				t.Fatalf("%s: ExtendMatrix with no new names = (%p, %v), want the same matrix %p", meas.Name(), same, err, first)
			}
			before := append([]float32(nil), first.vals...)
			for _, name := range names[k:] {
				grown.Intern(name)
			}
			m, err := grown.ExtendMatrix(first)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(first.vals, before) {
				t.Fatalf("%s: ExtendMatrix modified the matrix it grew", meas.Name())
			}
			whole := NewCache(meas)
			for _, name := range names {
				whole.Intern(name)
			}
			want := mustMatrix(whole)
			if m.Len() != grown.Len() || want.Len() != m.Len() {
				t.Fatalf("%s: grown matrix covers %d names, whole %d, cache %d", meas.Name(), m.Len(), want.Len(), grown.Len())
			}
			for a := 0; a < m.Len(); a++ {
				for b := 0; b < m.Len(); b++ {
					got := math.Float32bits(float32(m.Score(a, b)))
					if w := math.Float32bits(float32(want.Score(a, b))); got != w {
						t.Fatalf("%s: cell (%d,%d) grown %v, whole %v", meas.Name(), a, b, m.Score(a, b), want.Score(a, b))
					}
					ref := float32(1)
					if a != b {
						ref = float32(meas.Score(grown.NameOf(a), grown.NameOf(b)))
					}
					if got != math.Float32bits(ref) {
						t.Fatalf("%s: cell (%d,%d) = %v for (%q,%q), Measure.Score says %v",
							meas.Name(), a, b, m.Score(a, b), grown.NameOf(a), grown.NameOf(b), ref)
					}
				}
			}
		}
	})
}
