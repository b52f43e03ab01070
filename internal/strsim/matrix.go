package strsim

import "fmt"

// A Scorer scores similarity between two interned attribute names. Cache
// implements Scorer with lazy memoization; Matrix implements it with a
// precomputed dense table for the hot clustering loop. Scores must be
// symmetric: Score(a, b) == Score(b, a).
type Scorer interface {
	Score(a, b int) float64
}

// A Table is a Scorer backed by a precomputed score table over the full
// interned vocabulary whose every result is an exact float32 value —
// either stored as float32 (Matrix, SparseScores rows) or explicitly
// rounded through float32 (the SparseScores fallback). The clustering
// agenda keys a pair by its score's float32 bit pattern, and gates the
// seed-pair fast path, on this property, so only scorers that guarantee
// it implement the marker.
type Table interface {
	Scorer
	// Len reports the number of names the table covers.
	Len() int
	// float32Exact marks the scorer's float32-exactness; it is
	// unexported so only this package can make the promise.
	float32Exact()
}

// MaxMatrixNames caps BuildMatrix's vocabulary size. The dense table
// costs 4·n² bytes — 1 GiB at the cap — and past it a build is almost
// certainly a mistake (and on 32-bit n·n overflows int well before the
// alloc): large vocabularies belong on BuildSparse.
const MaxMatrixNames = 16384

// Matrix is a dense, read-only table of pairwise similarities between all
// names interned in a Cache at build time. Lookups are lock-free array
// reads, which matters because the search loop re-clusters candidate
// source sets thousands of times. Scores are stored as float32: schema
// similarity coefficients are ratios of small integers and lose nothing
// that matters to a θ comparison at that precision.
type Matrix struct {
	n    int
	vals []float32
}

// BuildMatrix computes the full similarity matrix over every name interned
// so far. Names interned after the build are unknown to the matrix and
// make Score panic, so callers must intern the complete vocabulary first —
// the engine interns every attribute name of the universe before building
// — or grow the matrix with ExtendMatrix. Vocabularies beyond
// MaxMatrixNames are refused (the n² table would be multi-GiB); use
// BuildSparse for those.
func (c *Cache) BuildMatrix() (*Matrix, error) { return c.ExtendMatrix(nil) }

// ExtendMatrix grows prev, a matrix this cache built earlier, to cover
// every name interned since. Intern IDs are append-only and a pair's
// score depends only on its two names, so prev's n₀×n₀ block is copied
// and only the pairs involving a newer name are scored. It returns prev
// itself when no name was interned since; prev is never modified. A nil
// prev builds the whole matrix.
func (c *Cache) ExtendMatrix(prev *Matrix) (*Matrix, error) {
	c.mu.RLock()
	names := append([]string(nil), c.names...)
	c.mu.RUnlock()
	n, n0 := len(names), 0
	if prev != nil {
		n0 = prev.n
	}
	switch {
	case n0 > n:
		return nil, fmt.Errorf("strsim: ExtendMatrix of a %d-name matrix over a %d-name cache (the matrix was built by another cache)", n0, n)
	case prev != nil && n0 == n:
		return prev, nil
	case n > MaxMatrixNames:
		return nil, fmt.Errorf("strsim: BuildMatrix over %d names exceeds the %d-name limit (the dense table would need %d MiB); use BuildSparse", n, MaxMatrixNames, 4*int64(n)*int64(n)>>20)
	}
	m := &Matrix{n: n, vals: make([]float32, n*n)}
	for i := 0; i < n0; i++ {
		copy(m.vals[i*n:i*n+n0], prev.vals[i*n0:(i+1)*n0])
	}
	score := c.pairScorer(names)
	for j := n0; j < n; j++ {
		m.vals[j*n+j] = 1
		for i := 0; i < j; i++ {
			s := float32(score(i, j))
			m.vals[i*n+j] = s
			m.vals[j*n+i] = s
		}
	}
	return m, nil
}

// pairScorer returns the function ExtendMatrix scores the pair of names
// i < j with. The n-gram measures intersect sorted gram-ID sets with the
// same integer counts and float expressions as Jaccard and Dice, so every
// score is bit-identical to Measure.Score; other measures score the names
// directly.
func (c *Cache) pairScorer(names []string) func(i, j int) float64 {
	var gramN int
	var coef func(la, lb, inter int) float64
	switch meas := c.measure.(type) {
	case *NGramJaccard:
		gramN, coef = meas.n, jaccardCoef
	case *NGramDice:
		gramN, coef = meas.n, diceCoef
	default:
		return func(i, j int) float64 { return c.measure.Score(names[i], names[j]) }
	}
	v := newGramVocab(gramN)
	sets := make([][]int32, len(names))
	for i, name := range names {
		sets[i] = v.set(name)
	}
	return func(i, j int) float64 {
		a, b := sets[i], sets[j]
		return coef(len(a), len(b), interSize(a, b))
	}
}

// float32Exact marks Matrix as a Table: it stores every score as
// float32.
func (m *Matrix) float32Exact() {}

// Len reports the number of names the matrix covers.
func (m *Matrix) Len() int { return m.n }

// Score implements Scorer. Both IDs must have been interned before the
// matrix was built.
func (m *Matrix) Score(a, b int) float64 {
	if a >= m.n || b >= m.n || a < 0 || b < 0 {
		panic("strsim: Matrix.Score on a name interned after the matrix was built")
	}
	return float64(m.vals[a*m.n+b])
}

// SizeBytes reports the memory footprint of the score table.
func (m *Matrix) SizeBytes() int { return 4 * len(m.vals) }

// Neighbors returns, for every name ID, the ascending list of name IDs
// (including itself) whose similarity is at least theta. Clustering uses
// this index to enumerate only the cluster pairs that can possibly merge,
// instead of scoring all Θ(k²) pairs every round.
func (m *Matrix) Neighbors(theta float64) [][]int {
	out := make([][]int, m.n)
	for i := 0; i < m.n; i++ {
		row := m.vals[i*m.n : (i+1)*m.n]
		var nbr []int
		for j, s := range row {
			if float64(s) >= theta {
				nbr = append(nbr, j)
			}
		}
		out[i] = nbr
	}
	return out
}
