package strsim

// This file implements the blocking (candidate-generation) layer that
// makes similarity sub-quadratic on large vocabularies. Instead of
// scoring all n² name pairs like BuildMatrix, a blocking index surfaces
// only the pairs that can plausibly reach θ and verifies exactly those
// with the real measure.
//
// The index is exact: a character n-gram inverted index with full
// postings, probed with prefix filtering (AllPairs/ppjoin-style). A pair
// with score ≥ θ must share at least m grams, and m common grams cannot
// all hide in a probe's last m−1 grams, so probing only the first s−m+1
// grams of each name (in a canonical rarest-first gram order) finds
// every qualifying pair. Candidates then pass a size-window check before
// exact verification, so both recall and precision are 1.
//
// The index is deterministic: gram order and probe order are pure
// functions of the name set, so the resulting candidate pairs — and
// everything built from them — are byte-reproducible across runs,
// machines and -race.
//
// The prefix-filter thresholds are conservatively widened (by more than
// one float32 ulp) because the sparse scorer's inclusion test rounds
// scores through float32 exactly like the dense Matrix does: a pair
// whose exact score is marginally below θ can still round into the
// θ-neighborhood, and the index must not lose it. Widening can only
// lengthen prefixes and size windows, so recall is never at risk.

import (
	"errors"
	"math"
	"slices"
	"sort"
)

// BlockConfig is the blocking index's configuration. It is empty — the
// exact prefix-filter index has no settings — and remains only so that
// existing BuildSparse callers keep compiling.
type BlockConfig struct{}

// BlockStats reports the deterministic work counts of one sparse build:
// names probed against the index, candidate pairs surfaced before exact
// verification, and candidates the size window or the exact measure
// rejected. Candidates − Pruned pairs end up in the sparse scorer.
type BlockStats struct {
	Probes     int64
	Candidates int64
	Pruned     int64
}

// ErrUnsupportedMeasure is returned by BuildSparse for measures the
// blocking index has no sound candidate generation for. Only the n-gram
// measures (NGramJaccard, NGramDice) are supported.
var ErrUnsupportedMeasure = errors.New("strsim: blocking index requires an n-gram measure")

// gramIndex is the substrate of the blocking index: per-name gram-ID
// sets in a canonical global order, plus full (θ-independent) postings
// per gram.
type gramIndex struct {
	sets [][]int32 // per name: gram IDs ascending in canonical order
	post [][]int32 // per gram ID: name IDs ascending (full postings)
}

// gramVocab interns character n-grams into dense int32 IDs in
// first-seen order. It is the one gram-set builder behind the dense
// matrix kernel, the blocking index and the dynamic index.
type gramVocab struct {
	n     int
	ids   map[string]int32
	grams []string // gram ID -> gram string
	cuts  []int    // scratch: byte offsets of a name's rune boundaries
}

// newGramVocab grams names into n-grams; n ≤ 0 means 3, as in NGrams, so
// a zero-value NGramJaccard or NGramDice grams like its Score does.
func newGramVocab(n int) *gramVocab {
	if n <= 0 {
		n = 3
	}
	return &gramVocab{n: n, ids: make(map[string]int32)}
}

// set returns the n-gram set of a normalized name — the set
// NGrams(name, n) holds — as ascending gram IDs, interning grams it has
// not seen. Grams are sliced out of name by rune boundaries, which on the
// valid UTF-8 Normalize produces are exactly NGrams' rune-slice grams.
func (v *gramVocab) set(name string) []int32 {
	if name == "" {
		return nil
	}
	v.cuts = v.cuts[:0]
	for i := range name {
		v.cuts = append(v.cuts, i)
	}
	runes := len(v.cuts)
	v.cuts = append(v.cuts, len(name))
	if runes < v.n {
		return []int32{v.id(name)}
	}
	set := make([]int32, 0, runes-v.n+1)
	for i := 0; i+v.n <= runes; i++ {
		set = append(set, v.id(name[v.cuts[i]:v.cuts[i+v.n]]))
	}
	slices.Sort(set)
	return slices.Compact(set)
}

// id interns one gram string.
func (v *gramVocab) id(g string) int32 {
	if id, ok := v.ids[g]; ok {
		return id
	}
	id := int32(len(v.grams))
	v.ids[g] = id
	v.grams = append(v.grams, g)
	return id
}

// buildGramIndex grams every name and interns the gram vocabulary in
// canonical order: ascending document frequency, ties broken by the
// gram string. Rarest-first ordering makes prefix probes hit the
// shortest postings, and the order is a pure function of the name set.
func buildGramIndex(names []string, gramN int) *gramIndex {
	v := newGramVocab(gramN)
	sets := make([][]int32, len(names))
	for i, name := range names {
		sets[i] = v.set(name)
	}
	gramStrs := v.grams
	df := make([]int32, len(gramStrs))
	for _, set := range sets {
		for _, g := range set {
			df[g]++
		}
	}
	order := make([]int32, len(gramStrs))
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(a, b int) bool {
		ga, gb := order[a], order[b]
		if df[ga] != df[gb] {
			return df[ga] < df[gb]
		}
		return gramStrs[ga] < gramStrs[gb]
	})
	rank := make([]int32, len(order))
	for r, g := range order {
		rank[g] = int32(r)
	}
	post := make([][]int32, len(order))
	for i, lst := range sets {
		for k, g := range lst {
			lst[k] = rank[g]
		}
		slices.Sort(lst)
		for _, g := range lst {
			// Name IDs ascend naturally: names are processed in order.
			post[g] = append(post[g], int32(i))
		}
	}
	return &gramIndex{sets: sets, post: post}
}

// thetaSlack widens θ before deriving integer prefix/window bounds. The
// inclusion test rounds exact scores through float32 (to match the
// dense Matrix bit for bit), which can admit pairs whose exact score is
// up to one float32 ulp (≈ 6e-8 for scores in [0,1]) below θ; 1e-6
// over-covers that. Widening only lengthens prefixes and windows, so it
// can cost candidates but never recall.
const thetaSlack = 1e-6

// minOverlap returns a lower bound on |A∩B| for any pair with
// (float32-rounded) score ≥ θ when |A| = s. For Jaccard, I ≥ θ·|A∪B| ≥
// θ·s; for Dice, 2I ≥ θ(|A|+|B|) ≥ θ(s+I) gives I ≥ θs/(2−θ). The
// float ceil is nudged down so rounding can only shrink m (a smaller m
// lengthens the probe prefix — conservative, never lossy).
func minOverlap(theta float64, s int, dice bool) int {
	t := theta - thetaSlack
	if t <= 0 {
		return 1
	}
	v := t * float64(s)
	if dice {
		v /= 2 - t
	}
	m := int(math.Ceil(v - 1e-9))
	if m < 1 {
		m = 1
	}
	if m > s {
		m = s
	}
	return m
}

// lenCompatible reports whether gram-set sizes sa, sb can possibly
// score ≥ θ: Jaccard needs sb ∈ [θ·sa, sa/θ], Dice needs
// sb ∈ [θ·sa/(2−θ), sa(2−θ)/θ]. θ is slack-widened like minOverlap.
func lenCompatible(theta float64, sa, sb int, dice bool) bool {
	t := theta - thetaSlack
	if t <= 0 {
		return true
	}
	a, b := float64(sa), float64(sb)
	if dice {
		return b >= t*a/(2-t) && b <= a*(2-t)/t
	}
	return b >= t*a && b <= a/t
}

// prefixPairs emits every candidate pair (a < b) the prefix filter
// surfaces at threshold theta. Each unordered pair is emitted exactly
// once, from its smaller-ID side: if the pair's score reaches θ the two
// names share at least minOverlap(θ, |Aₐ|) grams, and those cannot all
// sit in a's last m−1 grams, so one of a's first |Aₐ|−m+1 grams finds b
// in the full postings.
func (ix *gramIndex) prefixPairs(theta float64, dice bool, stats *BlockStats, emit func(a, b int32)) {
	mark := make([]int32, len(ix.sets))
	for i := range mark {
		mark[i] = -1
	}
	for a, set := range ix.sets {
		if len(set) == 0 {
			continue
		}
		stats.Probes++
		m := minOverlap(theta, len(set), dice)
		for _, g := range set[:len(set)-m+1] {
			for _, b := range ix.post[g] {
				if int(b) <= a || mark[b] == int32(a) {
					continue
				}
				mark[b] = int32(a)
				stats.Candidates++
				emit(int32(a), b)
			}
		}
	}
}

// interSize returns |a∩b| for two ascending int32 sets.
func interSize(a, b []int32) int {
	i, j, n := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}
