package cluster

import (
	"math"

	"ube/internal/model"
	"ube/internal/strsim"
)

// SeedPairs is a universe-level precomputation of the round-1 agenda: every
// pair of attribute slots whose name similarity reaches θ, grouped by
// source pair. Round 1 holds the bulk of all candidate pairs Match ever
// scores (~75% on the synthetic workload), and with a matrix scorer its
// content depends only on (universe, θ) — not on the candidate subset — so
// a caller may build it once per θ and share it across Match calls. Every
// Match(S) replaces the whole seed enumeration and scoring with a gather
// over the |S|(|S|+1)/2 groups of S's source pairs: two array lookups per
// group, one 8-byte record copy per emitted pair, no similarity lookups at
// all.
//
// The gather relies on seed()'s layout: with G empty, seed() emits one
// singleton cluster per attribute in (position of source in S, attribute
// index) order, so each slot's subset ord is its source's running
// attribute base plus the attribute index, and a pair of singletons scores
// exactly the name-pair score the matrix holds. Match falls back to the
// ordinary enumeration whenever the preconditions fail (see
// seedCompatible).
type SeedPairs struct {
	pairs  []seedPair // grouped by (srcA, srcB) source pair
	start  []int32    // srcA*nSrc+srcB -> offset of the group in pairs
	nSrc   int
	scores strsim.Table // identity-gates against a rebuilt vocabulary
	theta  float64
}

// seedPair is one candidate pair within a source-pair group: the two
// attribute indices and the pair's similarity as a simKey30 key. 8 bytes,
// so a gather streams groups at memory speed.
type seedPair struct {
	key          uint32
	attrA, attrB int16
}

// seedPairsMaxSources caps the group-offset table (nSrc² int32s, 16 MB at
// the cap); larger universes just skip the fast path.
const seedPairsMaxSources = 2048

// BuildSeedPairs precomputes the global seed agenda for a universe at
// threshold theta. It returns nil — callers then just skip the fast path —
// when the preconditions don't hold: the scorer must be a float32-exact
// table (dense matrix or θ-sparse — either way exact 30-bit keys),
// nameIDs and neighbors must be prebuilt for it, and the universe must
// fit the compact encoding.
func BuildSeedPairs(u *model.Universe, nameIDs [][]int, neighbors [][]int, scores strsim.Scorer, theta float64) *SeedPairs {
	m, ok := scores.(strsim.Table)
	if !ok || nameIDs == nil || neighbors == nil || u.N() > seedPairsMaxSources {
		return nil
	}
	nSrc := u.N()
	for s := 0; s < nSrc; s++ {
		if len(u.Source(s).Attributes) > math.MaxInt16 {
			return nil
		}
	}

	// owners lists, per name ID, the slots carrying it in (src, attr) order.
	type slot struct{ src, attr int32 }
	owners := make([][]slot, m.Len())
	for s := 0; s < nSrc; s++ {
		for a, n := range nameIDs[s] {
			owners[n] = append(owners[n], slot{int32(s), int32(a)})
		}
	}

	// Two passes over the same enumeration: group sizes, then records.
	// Every unordered slot pair with score ≥ θ lands in exactly one group,
	// emitted from its (src, attr)-smaller side; a singleton has one name,
	// so no pair is reachable via two name links.
	sp := &SeedPairs{start: make([]int32, nSrc*nSrc+1), nSrc: nSrc, scores: m, theta: theta}
	counts := sp.start[1:]
	forEachPair := func(emit func(group int32, key uint32, attrA, attrB int16)) {
		for s := 0; s < nSrc; s++ {
			row := int32(s * nSrc)
			for a, na := range nameIDs[s] {
				for _, nb := range neighbors[na] {
					score := m.Score(na, nb)
					if score < theta {
						continue
					}
					key := simKey30(score)
					for _, t := range owners[nb] {
						if int(t.src) < s || (int(t.src) == s && int(t.attr) <= a) {
							continue
						}
						emit(row+t.src, key, int16(a), int16(t.attr))
					}
				}
			}
		}
	}
	forEachPair(func(group int32, _ uint32, _, _ int16) { counts[group]++ })
	// Each counts entry becomes its group's start; the records pass below
	// advances it to the group's end, which is start[g+1] in the shifted
	// view.
	var sum int32
	for g, n := range counts {
		counts[g], sum = sum, sum+n
	}
	sp.pairs = make([]seedPair, sum)
	forEachPair(func(group int32, key uint32, attrA, attrB int16) {
		sp.pairs[counts[group]] = seedPair{key: key, attrA: attrA, attrB: attrB}
		counts[group]++
	})
	return sp
}

// Len reports the number of precomputed global pairs.
func (sp *SeedPairs) Len() int { return len(sp.pairs) }

// SizeBytes reports the memory footprint of the pair list and group table.
func (sp *SeedPairs) SizeBytes() int { return 8*len(sp.pairs) + 4*len(sp.start) }

// seedCompatible reports whether the precomputed agenda applies to this
// Match call: same score table, same θ, no GA constraints (constraint
// seeds break the one-singleton-per-slot layout), and a strictly
// ascending S (the gather computes subset ords from running attribute
// bases).
func seedCompatible(sp *SeedPairs, S []int, G []model.GA, cfg Config) bool {
	//ube:float-exact θ is a cache key: the precomputed agenda only applies to the bit-identical threshold it was built for
	if sp == nil || len(G) > 0 || cfg.Scores != strsim.Scorer(sp.scores) || cfg.Theta != sp.theta {
		return false
	}
	for i := 1; i < len(S); i++ {
		if S[i] <= S[i-1] {
			return false
		}
	}
	return true
}

// gatherSeed appends the round-1 agenda of subset S to out, unsorted
// (runAgenda sorts it into walk order). With no GA constraints the seeds
// are the slots of S in order, and runAgenda numbers seed i with ord
// nSeed+i, so a slot's ord is the slot count of S plus its position.
func gatherSeed(u *model.Universe, S []int, sp *SeedPairs, out []uint64) []uint64 {
	bases := make([]int32, len(S))
	ord := int32(0)
	for i, s := range S {
		bases[i] = ord
		ord += int32(len(u.Source(s).Attributes))
	}
	for i := range bases {
		bases[i] += ord
	}
	for i, si := range S {
		row := si * sp.nSrc
		bi := bases[i]
		for j := i; j < len(S); j++ {
			g := row + S[j]
			lo, hi := sp.start[g], sp.start[g+1]
			if lo == hi {
				continue
			}
			bj := bases[j]
			for _, p := range sp.pairs[lo:hi] {
				out = append(out, pack(p.key, bi+int32(p.attrA), bj+int32(p.attrB)))
			}
		}
	}
	return out
}
