package strsim

import "fmt"

// SparseScores is the large-vocabulary replacement for Matrix: a
// θ-thresholded CSR table holding, per interned name, the ascending
// list of names scoring at least θ against it (self included, like
// Matrix.Neighbors). It is built from the blocking index, so
// construction touches only plausible pairs instead of all n².
//
// Scores are stored as float32 — the same rounding the dense Matrix
// applies — and lookups of pairs outside the θ-neighborhood fall back
// to the exact measure through the cache, rounded through float32, so a
// SparseScores and a Matrix over the same vocabulary agree bit for bit
// on every pair (the clustering quality fold queries sub-θ pairs inside
// constraint clusters, so the fallback is correctness-critical, not
// just a convenience).
type SparseScores struct {
	n     int
	theta float64
	start []int32   // name ID -> offset of its row in cols/vals
	cols  []int32   // row-major ascending neighbor IDs
	vals  []float32 // scores parallel to cols
	cache *Cache    // exact fallback for pairs outside the rows
}

// sparseEntry is one neighbor during row assembly.
type sparseEntry struct {
	id    int32
	score float32
}

// BuildSparse builds the θ-thresholded sparse scorer over every name
// interned so far, generating candidates with the configured blocking
// mode and verifying each with the exact measure. Only the n-gram
// measures are supported (ErrUnsupportedMeasure otherwise); θ must lie
// in (0, 1] — at θ ≤ 0 every pair qualifies and no blocking scheme can
// beat the dense path. Like BuildMatrix, names interned after the build
// are unknown to the row structure and make Score panic.
func (c *Cache) BuildSparse(theta float64, cfg BlockConfig) (*SparseScores, BlockStats, error) {
	var stats BlockStats
	if theta <= 0 || theta > 1 {
		return nil, stats, fmt.Errorf("strsim: BuildSparse theta %v outside (0,1]", theta)
	}
	var gramN int
	var dice bool
	coef := jaccardCoef
	switch meas := c.measure.(type) {
	case *NGramJaccard:
		gramN = meas.n
	case *NGramDice:
		gramN, dice, coef = meas.n, true, diceCoef
	default:
		return nil, stats, fmt.Errorf("%w (have %s)", ErrUnsupportedMeasure, c.measure.Name())
	}
	cfg = cfg.withDefaults()

	c.mu.RLock()
	names := append([]string(nil), c.names...)
	c.mu.RUnlock()
	n := len(names)
	ix := buildGramIndex(names, gramN)

	rows := make([][]sparseEntry, n)
	verify := func(a, b int32) {
		sa, sb := ix.sets[a], ix.sets[b]
		if !lenCompatible(theta, len(sa), len(sb), dice) {
			stats.Pruned++
			return
		}
		// The Jaccard/Dice coefficient helpers keep the stored values
		// bit-identical to what the dense path computes.
		s := coef(len(sa), len(sb), interSize(sa, sb))
		// Inclusion mirrors the dense path: scores round through float32
		// before the θ comparison.
		if float64(float32(s)) >= theta {
			rows[a] = append(rows[a], sparseEntry{id: b, score: float32(s)})
			rows[b] = append(rows[b], sparseEntry{id: a, score: float32(s)})
		} else {
			stats.Pruned++
		}
	}
	switch cfg.Mode {
	case BlockPrefix:
		ix.prefixPairs(theta, dice, &stats, verify)
	case BlockMinHash:
		//ube:nondeterministic-ok rows are sorted by neighbor ID below; stats are order-free counts
		for p := range ix.minhashPairs(cfg, &stats) {
			verify(int32(p.lo), int32(p.hi))
		}
	default:
		return nil, stats, fmt.Errorf("strsim: unknown blocking mode %d", cfg.Mode)
	}

	s := &SparseScores{n: n, theta: theta, start: make([]int32, n+1), cache: c}
	nnz := 0
	for i := range rows {
		// Self-similarity is 1 for every interned name (the Matrix diag
		// stores exactly that), so every row carries itself.
		rows[i] = append(rows[i], sparseEntry{id: int32(i), score: 1})
		nnz += len(rows[i])
	}
	s.cols = make([]int32, 0, nnz)
	s.vals = make([]float32, 0, nnz)
	for i, row := range rows {
		// Candidate discovery order varies by mode; ascending-ID rows
		// make the structure (and everything built on it) canonical.
		sortEntries(row)
		for _, e := range row {
			s.cols = append(s.cols, e.id)
			s.vals = append(s.vals, e.score)
		}
		s.start[i+1] = int32(len(s.cols))
	}
	return s, stats, nil
}

// sortEntries orders a row by neighbor ID ascending. Rows never hold
// duplicate IDs: both blocking modes emit each unordered pair once.
func sortEntries(row []sparseEntry) {
	// Insertion sort: rows are typically a handful of entries, and the
	// common case (already ascending from prefixPairs emission order)
	// is linear.
	for i := 1; i < len(row); i++ {
		for j := i; j > 0 && row[j].id < row[j-1].id; j-- {
			row[j], row[j-1] = row[j-1], row[j]
		}
	}
}

// Len reports the number of names the sparse table covers.
func (s *SparseScores) Len() int { return s.n }

// Theta reports the threshold the rows were built at.
func (s *SparseScores) Theta() float64 { return s.theta }

// NNZ reports the number of stored row entries (θ-neighbors plus one
// self entry per name).
func (s *SparseScores) NNZ() int { return len(s.cols) }

// SizeBytes reports the memory footprint of the CSR arrays.
func (s *SparseScores) SizeBytes() int { return 4*len(s.start) + 4*len(s.cols) + 4*len(s.vals) }

// Score implements Scorer. θ-neighborhood lookups are lock-free reads
// of the CSR row; anything else falls back to the exact cached measure,
// rounded through float32 to match the dense Matrix bit for bit.
func (s *SparseScores) Score(a, b int) float64 {
	if a >= s.n || b >= s.n || a < 0 || b < 0 {
		panic("strsim: SparseScores.Score on a name interned after BuildSparse")
	}
	if a == b {
		return 1
	}
	lo, hi := int(s.start[a]), int(s.start[a+1])
	cols := s.cols[lo:hi]
	i, j := 0, len(cols)
	for i < j {
		h := (i + j) / 2
		if cols[h] < int32(b) {
			i = h + 1
		} else {
			j = h
		}
	}
	if i < len(cols) && cols[i] == int32(b) {
		return float64(s.vals[lo+i])
	}
	// The sub-θ fallback rounds through float32 so sparse and dense
	// scorers agree bit for bit.
	return float64(float32(s.cache.Score(a, b)))
}

// float32Exact marks SparseScores as a Table: every Score result is an
// exact float32 value (stored entries by construction, fallback by the
// explicit round-trip).
func (s *SparseScores) float32Exact() {}

// Neighbors returns, for every name ID, the ascending list of name IDs
// (including itself) whose similarity is at least theta — the same
// shape Matrix.Neighbors produces. theta must be at least the build
// threshold: pairs below it were never materialized, so a looser query
// would silently miss neighbors (that is a programming error, hence the
// panic).
func (s *SparseScores) Neighbors(theta float64) [][]int {
	if theta < s.theta {
		panic(fmt.Sprintf("strsim: SparseScores built at θ=%v cannot enumerate neighbors at θ=%v", s.theta, theta))
	}
	out := make([][]int, s.n)
	for i := 0; i < s.n; i++ {
		var nbr []int
		for k := s.start[i]; k < s.start[i+1]; k++ {
			if float64(s.vals[k]) >= theta {
				nbr = append(nbr, int(s.cols[k]))
			}
		}
		out[i] = nbr
	}
	return out
}
