// Package strsim provides string similarity measures for schema matching.
//
// The µBE prototype measures the similarity between a pair of attributes as
// the Jaccard similarity coefficient between the 3-grams in the attribute
// names (paper §3). The package also ships several alternative measures
// (Dice, token Jaccard, Levenshtein ratio, exact match) behind a common
// Measure interface, since µBE is explicitly designed to accept any pairwise
// attribute similarity measure as the building block of its clustering.
package strsim

import (
	"math"
	"strings"
	"unicode"
)

// A Measure computes a symmetric similarity score in [0,1] between two
// attribute names. Score(a, a) must be 1 for any non-empty a, and
// Score(a, b) == Score(b, a).
type Measure interface {
	// Name identifies the measure, e.g. for logging or configuration.
	Name() string
	// Score returns the similarity between two attribute names in [0,1].
	Score(a, b string) float64
}

// Normalize canonicalizes an attribute name before similarity computation:
// it lowercases the name, maps every run of non-alphanumeric characters
// (spaces, punctuation, underscores) to a single space, and trims the ends.
// Hidden-Web query interfaces label the same concept as "Author Name",
// "author_name" or "author-name"; normalization makes these identical.
func Normalize(name string) string {
	var b strings.Builder
	b.Grow(len(name))
	space := true // suppress leading separators
	for _, r := range name {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			b.WriteRune(unicode.ToLower(r))
			space = false
		default:
			if !space {
				b.WriteByte(' ')
				space = true
			}
		}
	}
	return strings.TrimRight(b.String(), " ")
}

// NGrams returns the set of character n-grams of the normalized form of
// name, matching the paper's unpadded 3-gram formulation. A normalized name
// shorter than n contributes itself as a single gram so that very short
// labels ("id", "by") still compare meaningfully. The result is a set:
// duplicate grams appear once.
func NGrams(name string, n int) map[string]struct{} {
	if n <= 0 {
		n = 3
	}
	s := Normalize(name)
	if s == "" {
		return map[string]struct{}{}
	}
	runes := []rune(s)
	if len(runes) < n {
		return map[string]struct{}{s: {}}
	}
	grams := make(map[string]struct{}, len(runes))
	for i := 0; i+n <= len(runes); i++ {
		grams[string(runes[i:i+n])] = struct{}{}
	}
	return grams
}

// Jaccard returns |a∩b| / |a∪b| for two sets, and 0 when both are empty.
func Jaccard[K comparable](a, b map[K]struct{}) float64 {
	return jaccardCoef(len(a), len(b), interCount(a, b))
}

// Dice returns 2|a∩b| / (|a|+|b|) for two sets, and 0 when both are empty.
func Dice[K comparable](a, b map[K]struct{}) float64 {
	return diceCoef(len(a), len(b), interCount(a, b))
}

// interCount returns |a∩b|, probing the larger set with the smaller.
func interCount[K comparable](a, b map[K]struct{}) int {
	if len(a) > len(b) {
		a, b = b, a
	}
	inter := 0
	//ube:nondeterministic-ok integer membership counting is order-independent
	for k := range a {
		if _, ok := b[k]; ok {
			inter++
		}
	}
	return inter
}

// jaccardCoef and diceCoef compute the coefficients from the two set
// sizes and their intersection size. Every n-gram scorer in the package
// (Measure.Score, the dense matrix, the sparse tables) goes through them,
// which is what keeps their scores bit-identical.
func jaccardCoef(la, lb, inter int) float64 {
	union := la + lb - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

func diceCoef(la, lb, inter int) float64 {
	if la+lb == 0 {
		return 0
	}
	return 2 * float64(inter) / float64(la+lb)
}

// NGramJaccard is the paper's default measure: Jaccard coefficient between
// the n-gram sets of the two names. The zero value is not usable; construct
// with NewNGramJaccard.
type NGramJaccard struct {
	n int
}

// NewNGramJaccard returns the paper's measure with the given gram size.
// µBE uses n = 3.
func NewNGramJaccard(n int) *NGramJaccard {
	if n <= 0 {
		n = 3
	}
	return &NGramJaccard{n: n}
}

// Name implements Measure.
func (m *NGramJaccard) Name() string { return "ngram-jaccard" }

// Score implements Measure.
func (m *NGramJaccard) Score(a, b string) float64 {
	return Jaccard(NGrams(a, m.n), NGrams(b, m.n))
}

// NGramDice is like NGramJaccard but uses the Dice coefficient, which is
// more forgiving for names of very different lengths.
type NGramDice struct {
	n int
}

// NewNGramDice returns a Dice-coefficient n-gram measure.
func NewNGramDice(n int) *NGramDice {
	if n <= 0 {
		n = 3
	}
	return &NGramDice{n: n}
}

// Name implements Measure.
func (m *NGramDice) Name() string { return "ngram-dice" }

// Score implements Measure.
func (m *NGramDice) Score(a, b string) float64 {
	return Dice(NGrams(a, m.n), NGrams(b, m.n))
}

// TokenJaccard computes the Jaccard coefficient between the sets of
// whitespace-separated tokens of the normalized names. "publication date"
// vs "date of publication" scores 2/3 here but much lower on 3-grams.
type TokenJaccard struct{}

// Name implements Measure.
func (TokenJaccard) Name() string { return "token-jaccard" }

// Score implements Measure.
func (TokenJaccard) Score(a, b string) float64 {
	return Jaccard(tokenSet(a), tokenSet(b))
}

func tokenSet(name string) map[string]struct{} {
	toks := strings.Fields(Normalize(name))
	set := make(map[string]struct{}, len(toks))
	for _, t := range toks {
		set[t] = struct{}{}
	}
	return set
}

// LevenshteinRatio scores 1 − dist(a,b)/max(len(a),len(b)) on normalized
// names, a classic edit-distance similarity.
type LevenshteinRatio struct{}

// Name implements Measure.
func (LevenshteinRatio) Name() string { return "levenshtein-ratio" }

// Score implements Measure.
func (LevenshteinRatio) Score(a, b string) float64 {
	na, nb := Normalize(a), Normalize(b)
	la, lb := len([]rune(na)), len([]rune(nb))
	if la == 0 && lb == 0 {
		return 0
	}
	maxLen := la
	if lb > maxLen {
		maxLen = lb
	}
	d := Levenshtein(na, nb)
	return 1 - float64(d)/float64(maxLen)
}

// Levenshtein returns the edit distance between two strings, counting
// insertions, deletions and substitutions each as cost 1.
//
// Attribute names are overwhelmingly ASCII and frequently share long
// prefixes or suffixes ("book title" / "full title", "isbn" / "isbn
// number"), so two fast paths run before the O(|a|·|b|) dynamic program:
// a shared prefix and suffix are stripped (they never participate in an
// optimal edit script), and all-ASCII inputs are processed as bytes,
// skipping the []rune conversions entirely.
func Levenshtein(a, b string) int {
	if a == b {
		return 0
	}
	if isASCII(a) && isASCII(b) {
		// Byte indexing is safe — every byte is one rune. Trimming is
		// only safe here: sharing prefix bytes does not imply sharing
		// prefix runes in multi-byte UTF-8.
		a, b = trimCommon(a, b)
		return levenshteinASCII(a, b)
	}
	ra, rb := []rune(a), []rune(b)
	lo := 0
	for lo < len(ra) && lo < len(rb) && ra[lo] == rb[lo] {
		lo++
	}
	ha, hb := len(ra), len(rb)
	for ha > lo && hb > lo && ra[ha-1] == rb[hb-1] {
		ha--
		hb--
	}
	return levenshteinGeneric(ra[lo:ha], rb[lo:hb])
}

// isASCII reports whether s has no byte ≥ 0x80.
func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= 0x80 {
			return false
		}
	}
	return true
}

// trimCommon strips the longest shared prefix and suffix from two
// byte-indexable strings.
func trimCommon(a, b string) (string, string) {
	lo := 0
	for lo < len(a) && lo < len(b) && a[lo] == b[lo] {
		lo++
	}
	ha, hb := len(a), len(b)
	for ha > lo && hb > lo && a[ha-1] == b[hb-1] {
		ha--
		hb--
	}
	return a[lo:ha], b[lo:hb]
}

// levenshteinASCII is the two-row DP indexing the strings as bytes —
// valid only for ASCII inputs — with no rune-slice allocation.
func levenshteinASCII(a, b string) int {
	if len(a) == 0 {
		return len(b)
	}
	if len(b) == 0 {
		return len(a)
	}
	// A small stack buffer serves both rows for typical attribute names.
	var buf [2 * 64]int
	var prev, cur []int
	if len(b)+1 <= 64 {
		prev, cur = buf[:len(b)+1], buf[64:64+len(b)+1]
	} else {
		prev = make([]int, len(b)+1)
		cur = make([]int, len(b)+1)
	}
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		ca := a[i-1]
		for j := 1; j <= len(b); j++ {
			cost := 1
			if ca == b[j-1] {
				cost = 0
			}
			m := prev[j-1] + cost        // substitution
			if v := prev[j] + 1; v < m { // deletion
				m = v
			}
			if v := cur[j-1] + 1; v < m { // insertion
				m = v
			}
			cur[j] = m
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

// levenshteinGeneric is the two-row DP over rune slices.
func levenshteinGeneric(ra, rb []rune) int {
	if len(ra) == 0 {
		return len(rb)
	}
	if len(rb) == 0 {
		return len(ra)
	}
	prev := make([]int, len(rb)+1)
	cur := make([]int, len(rb)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			m := prev[j-1] + cost        // substitution
			if v := prev[j] + 1; v < m { // deletion
				m = v
			}
			if v := cur[j-1] + 1; v < m { // insertion
				m = v
			}
			cur[j] = m
		}
		prev, cur = cur, prev
	}
	return prev[len(rb)]
}

// Exact scores 1 when the normalized names are identical and 0 otherwise.
// Useful as a conservative baseline and in tests.
type Exact struct{}

// Name implements Measure.
func (Exact) Name() string { return "exact" }

// Score implements Measure.
func (Exact) Score(a, b string) float64 {
	na, nb := Normalize(a), Normalize(b)
	if na == "" && nb == "" {
		return 0
	}
	if na == nb {
		return 1
	}
	return 0
}

// Default returns the measure used by the µBE prototype: Jaccard similarity
// over 3-grams of the attribute names.
func Default() Measure { return NewNGramJaccard(3) }

// JaroWinkler is the Jaro–Winkler similarity on normalized names — the
// classic measure for short name-matching tasks (Cohen, Ravikumar &
// Fienberg [6], the paper's similarity-measure reference, evaluate it
// alongside Jaccard variants).
type JaroWinkler struct{}

// Name implements Measure.
func (JaroWinkler) Name() string { return "jaro-winkler" }

// Score implements Measure.
func (JaroWinkler) Score(a, b string) float64 {
	na, nb := Normalize(a), Normalize(b)
	if na == "" && nb == "" {
		return 0
	}
	if na == nb {
		return 1
	}
	j := jaro([]rune(na), []rune(nb))
	// Winkler boost: reward a shared prefix of up to 4 runes.
	prefix := 0
	ra, rb := []rune(na), []rune(nb)
	for prefix < len(ra) && prefix < len(rb) && prefix < 4 && ra[prefix] == rb[prefix] {
		prefix++
	}
	const p = 0.1
	return j + float64(prefix)*p*(1-j)
}

// jaro computes the plain Jaro similarity.
func jaro(a, b []rune) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	window := max(len(a), len(b))/2 - 1
	if window < 0 {
		window = 0
	}
	matchA := make([]bool, len(a))
	matchB := make([]bool, len(b))
	matches := 0
	for i, ra := range a {
		lo := max(0, i-window)
		hi := min(len(b), i+window+1)
		for j := lo; j < hi; j++ {
			if !matchB[j] && b[j] == ra {
				matchA[i], matchB[j] = true, true
				matches++
				break
			}
		}
	}
	if matches == 0 {
		return 0
	}
	// Count transpositions among matched runes.
	trans := 0
	j := 0
	for i := range a {
		if !matchA[i] {
			continue
		}
		for !matchB[j] {
			j++
		}
		if a[i] != b[j] {
			trans++
		}
		j++
	}
	m := float64(matches)
	return (m/float64(len(a)) + m/float64(len(b)) + (m-float64(trans)/2)/m) / 3
}

// TokenCosine is the cosine similarity between the token multisets of the
// normalized names — robust to word reordering and partial overlap in
// longer labels like "date of publication" vs "publication date".
type TokenCosine struct{}

// Name implements Measure.
func (TokenCosine) Name() string { return "token-cosine" }

// Score implements Measure.
func (TokenCosine) Score(a, b string) float64 {
	na, nb := Normalize(a), Normalize(b)
	if na == "" || nb == "" {
		return 0
	}
	if na == nb {
		return 1
	}
	ta := tokenCounts(na)
	tb := tokenCounts(nb)
	// Integer accumulation: exact regardless of map iteration order, so
	// the score is a pure function of the two names.
	var dot, qa, qb int
	//ube:nondeterministic-ok integer sums are order-independent
	for tok, ca := range ta {
		qa += ca * ca
		if cb, ok := tb[tok]; ok {
			dot += ca * cb
		}
	}
	//ube:nondeterministic-ok integer sums are order-independent
	for _, cb := range tb {
		qb += cb * cb
	}
	cos := float64(dot) / (math.Sqrt(float64(qa)) * math.Sqrt(float64(qb)))
	// sqrt rounding can nudge the ratio a hair outside [0,1].
	return math.Max(0, math.Min(cos, 1))
}

func tokenCounts(name string) map[string]int {
	counts := map[string]int{}
	for _, t := range strings.Fields(Normalize(name)) {
		counts[t]++
	}
	return counts
}
