package cluster

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"ube/internal/strsim"
	"ube/internal/ubedebug"
)

// This file implements the agenda scheduling of Algorithm 1's merge
// rounds. Algorithm 1 as written (and its transcription in
// algorithm1_test.go, the reference Match is tested against) re-enumerates,
// re-scores and re-sorts every candidate pair on every round: O(rounds ×
// pairs log pairs) with the pair scoring itself repeated each round. The
// agenda scores each pair exactly once and carries it across rounds:
//
//   - every pair is scored when one of its endpoints is created (at seed
//     time, or when a merge gives birth to a cluster);
//   - each round walks the candidate pairs in best-first order,
//     replicating the transcription's sorted walk entry for entry;
//   - pairs whose endpoints both survive a round un-merged (necessarily
//     source-overlapping pairs, which can never merge) are carried to the
//     next round with their cached similarity — never re-scored. Because
//     the walk emits them in priority order, the carried list is already
//     sorted, so carrying costs O(1) per pair per round;
//   - round 1's pairs and each later round's fresh pairs — those
//     involving a cluster born in the previous round — are enumerated
//     into a run of their own, which a two-pointer walk merges with the
//     carried stream. The enumeration emits a run nearly in walk order
//     and a run holds few distinct similarity keys, so sortRun buckets it
//     by key in one stable scatter; slices.IsSorted then checks it and
//     slices.Sort repairs the rare run the scatter left unsorted;
//   - the owners lists (name → clusters carrying it) are rebuilt from
//     each round's cluster list, so they hold only live clusters in ord
//     order, and the enumeration never meets a dead one;
//   - a pair is stale once an endpoint merges or is eliminated: the carry
//     filter drops it after the walk, so every entry a walk meets joins
//     two clusters of that round's list.
//
// The result is byte-identical to the transcription (the differential
// tests in agenda_test.go check it on random universes). The equivalence
// rests on two facts worked out from Algorithm 1's semantics:
//
//  1. A pair that survives a round with both endpoints free is source-
//     overlapping: a disjoint pair with both endpoints free merges the
//     moment the walk reaches it. So carried-over pairs never merge and
//     never need rescoring, and every merge in round r involves at least
//     one cluster born in round r−1 (or round 1's seeds).
//
//  2. The transcription breaks ties between equal similarities by the
//     pair of list positions, and its next round's list is
//     born-in-merge-order followed by survivors in previous order.
//     Assigning each born cluster an ord below every existing cluster's
//     (increasing within one round's born list) therefore keeps
//     ord-order identical to list-position order in every round, so the
//     priority (sim desc, ordLo asc, ordHi asc) walks in its order.
//
// An entry is one uint64 (see pack): the similarity key in the top 30
// bits, then the two endpoint ords, 17 bits each. Unsigned < on the word
// is exactly the walk priority, so a run sorts as integers (sortRun)
// and the stream merge is one integer compare per step. With
// realistic vocabularies most candidate pairs tie on similarity, so the
// ord tiebreak is the common case, and it costs nothing extra here. An
// ord doubles as the cluster's slot in the run's arena, so an entry
// decodes straight back to its two clusters, and holds no pointer for
// sorts and carries to pay GC write barriers on.

// Entry layout. A run with nSeed seed clusters numbers them nSeed,
// nSeed+1, …, 2·nSeed−1, and a run makes at most nSeed−1 merges, each
// newborn ranked below every ord so far, so every ord lies in
// [1, 2·nSeed). ordBits covers that range for nSeed < MaxSlots, and
// keyBits covers every simKey30 key (scores in [0,1]) and every rank key
// of a run with fewer than 2^30 distinct similarities; reaching that takes
// over 2^15 distinct names, whose ≈2^30 pairs rankSims would score.
const (
	keyBits  = 30
	ordBits  = 17
	ordMask  = 1<<ordBits - 1
	keyShift = 2 * ordBits
)

// MaxSlots bounds the attribute slots of a candidate set: Match and Split
// panic on a set with MaxSlots or more, since a run over that many seed
// clusters cannot pack its agenda entries.
const MaxSlots = 1 << (ordBits - 1)

// checkSlots panics unless a set of n attribute slots fits the agenda
// entry layout.
func checkSlots(n int) {
	if n >= MaxSlots {
		panic(fmt.Errorf("cluster: %d attribute slots, the limit is %d", n, MaxSlots-1))
	}
}

// pack builds the agenda entry of a pair with similarity key key and
// endpoint ords ordA < ordB. Every field has a fixed width and the key is
// the most significant, so unsigned order on entries is lexicographic
// order on (key, ordA, ordB).
func pack(key uint32, ordA, ordB int32) uint64 {
	e := uint64(key)<<keyShift | uint64(ordA)<<ordBits | uint64(ordB)
	if ubedebug.Enabled {
		a, b := unpack(e)
		ubedebug.Assert(key < 1<<keyBits && 0 < ordA && ordA < ordB && ordB <= ordMask &&
			uint32(e>>keyShift) == key && a == ordA && b == ordB,
			"cluster: agenda entry (key %d, ords %d, %d) does not fit its packed layout", key, ordA, ordB)
	}
	return e
}

// unpack returns an entry's endpoint ords.
func unpack(e uint64) (ordA, ordB int32) {
	return int32(e >> ordBits & ordMask), int32(e & ordMask)
}

// simKey30 is the key of a similarity that came out of a strsim.Table.
// The table stores scores as float32, so the float32 bit pattern loses
// nothing, and IEEE-754 bit patterns of non-negative floats are
// order-isomorphic to their values; scores in [0,1] keep the pattern
// below 2^30. The key is bit-inverted so that ascending key order is
// descending similarity: equal sims share a key and distinct sims order
// strictly, preserving Algorithm 1's walk order tie-for-tie.
func simKey30(sim float64) uint32 {
	return 0x3FFFFFFF - math.Float32bits(float32(sim))
}

// rankSims returns, in descending order, the distinct similarities ≥ θ of
// the name pairs in a run: the keys of a scorer that is not a
// strsim.Table, whose float64 scores do not fit 30 bits. A cluster
// similarity is a maximum over name pairs, and clusters only ever hold
// the names their seeds carry, so every similarity the run keys is in the
// list, and its index there is an exact order-isomorphic key. With an
// adjacency index only neighbor pairs can reach θ; without one every
// pair is scored, the same order of work as that path's all-pairs round
// 1. Scorers are symmetric, so each unordered pair is scored once.
func rankSims(clusters []*workCluster, owners [][]*workCluster, cfg Config, sc *Scratch) []float64 {
	names := sc.names[:0]
	for _, c := range clusters {
		names = append(names, c.names...)
	}
	slices.Sort(names)
	names = slices.Compact(names)
	sims := sc.sims[:0]
	for i, na := range names {
		if owners == nil {
			for _, nb := range names[i:] {
				if s := cfg.Scores.Score(na, nb); s >= cfg.Theta {
					sims = append(sims, s)
				}
			}
			continue
		}
		for _, nb := range cfg.Neighbors[na] {
			if nb >= na && len(owners[nb]) > 0 {
				if s := cfg.Scores.Score(na, nb); s >= cfg.Theta {
					sims = append(sims, s)
				}
			}
		}
	}
	slices.SortFunc(sims, func(x, y float64) int { return cmp.Compare(y, x) })
	sims = slices.Compact(sims)
	sc.names, sc.sims = names, sims
	return sims
}

// agenda is one run's entry codec: the arena that decodes an ord back to
// its cluster, and the key of a similarity.
type agenda struct {
	arena  []*workCluster   // ord -> cluster
	byRank bool             // the scorer is not a strsim.Table: key by rank in ranks
	ranks  []float64        // rankSims of the run
	owners [][]*workCluster // name ID -> clusters carrying it; nil without an adjacency index
	cfg    Config
}

// entry packs the pair (a, b) with agenda key key, endpoints in ord
// order. It and key stay small enough to inline: they run once per
// admitted pair.
func (ag *agenda) entry(a, b *workCluster, key uint32) uint64 {
	if a.ord > b.ord {
		a, b = b, a
	}
	e := pack(key, a.ord, b.ord)
	if ubedebug.Enabled {
		oa, ob := unpack(e)
		ubedebug.Assert(ag.arena[oa] == a && ag.arena[ob] == b,
			"cluster: agenda entry for ords %d, %d decodes to other clusters", a.ord, b.ord)
	}
	return e
}

// key is similarity s's agenda key: simKey30 for a strsim.Table scorer,
// its rank otherwise.
func (ag *agenda) key(s float64) uint32 {
	if ag.byRank {
		return ag.rankKey(s)
	}
	return simKey30(s)
}

// rankKey is s's index in the run's descending similarity list.
func (ag *agenda) rankKey(s float64) uint32 {
	i, found := slices.BinarySearchFunc(ag.ranks, s, func(r, s float64) int { return cmp.Compare(s, r) })
	if ubedebug.Enabled {
		ubedebug.Assert(found, "cluster: similarity %v missing from the run's rank list", s)
	}
	return uint32(i)
}

// runAgenda executes the merge rounds of Algorithm 1 (lines 5–23) on the
// sorted-run agenda. It produces the same cluster list, in the same order,
// as Algorithm 1 run round by round (algorithm1_test.go). When preGathered is set, seedQ is the unsorted round-1 agenda
// (from SeedPairs) and the seed enumeration is skipped; the gather only
// happens with a strsim.Table scorer, so its keys are simKey30 keys.
func runAgenda(clusters []*workCluster, seedQ []uint64, preGathered bool, cfg Config, sc *Scratch) []*workCluster {
	nSeed := len(clusters)
	if cap(sc.arena) < 2*nSeed {
		sc.arena = make([]*workCluster, 2*nSeed)
	}
	ag := &agenda{arena: sc.arena[:2*nSeed], cfg: cfg}
	arena := ag.arena
	minOrd := int32(nSeed)
	for i, c := range clusters {
		c.ord = minOrd + int32(i)
		c.mergedIn = 0
		c.cand = false
		c.gone = false
		c.markBy = nil
		arena[c.ord] = c
	}

	// Round 1 enumerates every seed's pairs into the carried queue; each
	// later round enumerates only its fresh pairs — those involving a
	// newborn — into a second run, merged with the carried stream by a
	// two-pointer walk. Both come out in walk order through sortRun.
	if cfg.Neighbors != nil {
		if cap(sc.owners) < len(cfg.Neighbors) {
			sc.owners = make([][]*workCluster, len(cfg.Neighbors))
		}
		// Every owners list is empty between runs. During a run the lists
		// hold exactly the round's cluster list, in list (= ord) order.
		ag.owners = sc.owners[:len(cfg.Neighbors)]
		ag.index(clusters)
	}
	if _, table := cfg.Scores.(strsim.Table); !table {
		ag.byRank = true
		ag.ranks = rankSims(clusters, ag.owners, cfg, sc)
	}
	var queue []uint64
	pending := sc.pending[:0]
	if preGathered {
		queue = seedQ
	} else {
		queue = sc.queue[:0]
		if ag.owners != nil {
			for _, c := range clusters {
				queue = ag.appendIndexed(queue, c)
			}
		} else {
			for i := 0; i < len(clusters); i++ {
				for j := i + 1; j < len(clusters); j++ {
					if s := clusterSim(clusters[i], clusters[j], cfg.Scores); s >= cfg.Theta {
						queue = append(queue, ag.entry(clusters[i], clusters[j], ag.key(s)))
					}
				}
			}
		}
	}
	queue, pending = sortRun(queue, pending)

	// Work counters accumulate locally and flush once at the single
	// return below, so the walk itself carries no atomics.
	var pops int64
	admitted := int64(len(queue))

	fresh := sc.fresh[:0]
	// The cluster list and the next round's newborns ping-pong between
	// two buffers: a round's list is read until the next one is built.
	spare := sc.born
	for round := 1; ; round++ {
		born := spare[:0]
		pending = pending[:0]

		// Walk the round's pairs best-first by merging the two sorted
		// streams: the carried queue and the round's fresh pairs. The
		// walk observes exactly the merged/free states Algorithm 1's
		// sorted walk observes, because the merged order equals its
		// sort order and both walks mutate state identically.
		// Every entry joins two clusters of the round's list: no
		// cluster is eliminated during a walk.
		qi, fi := 0, 0
		for qi < len(queue) || fi < len(fresh) {
			pops++
			var e uint64
			if qi < len(queue) && (fi == len(fresh) || queue[qi] < fresh[fi]) {
				e = queue[qi]
				qi++
			} else {
				e = fresh[fi]
				fi++
			}
			oa, ob := unpack(e)
			a, b := arena[oa], arena[ob]
			if ubedebug.Enabled {
				ubedebug.Assert(!a.gone && !b.gone, "cluster: agenda entry for ords %d, %d names an eliminated cluster", oa, ob)
			}
			aM, bM := a.mergedIn != 0, b.mergedIn != 0
			switch {
			case !aM && !bM:
				if disjointSources(a, b) {
					u := sc.newCluster()
					mergeInto(u, a, b, sc)
					born = append(born, u)
					a.mergedIn, b.mergedIn = round, round
				} else {
					// Can never merge; may carry to the next round
					// if both endpoints survive (lines 15–19 only
					// fire when a partner merges first). Appended in
					// walk order, so pending stays sorted.
					pending = append(pending, e)
				}
			case aM != bM:
				// One partner was just merged; the other becomes a
				// merge candidate and survives elimination. A partner
				// merged in an earlier round would make the entry
				// stale, but the invariants above rule that out: the
				// agenda only ever holds pairs between clusters alive
				// and un-merged when the round began.
				if aM {
					b.cand = true
				} else {
					a.cand = true
				}
			default:
				// Both endpoints merged this round: nothing to do.
			}
		}

		// Eliminate clusters that can never merge again (lines 20–22)
		// and splice the newborns in front, exactly like Algorithm 1's
		// next-round list.
		next := born
		for _, c := range clusters {
			switch {
			case c.mergedIn != 0:
				// replaced by its union
			case c.keep || c.grown || c.cand:
				c.cand = false
				next = append(next, c)
			default:
				c.gone = true
			}
		}
		spare, clusters = clusters, next
		if len(born) == 0 {
			// Hand the working buffers back for the next run, with
			// every owners list empty again.
			if ag.owners != nil {
				ag.unindex(spare)
			}
			sc.queue, sc.pending, sc.fresh = queue, pending, fresh
			sc.list, sc.born = clusters, spare
			sc.rounds += int64(round)
			sc.pops += pops
			sc.pairs += admitted
			return clusters
		}

		// Carry the pairs that survived the round intact — an endpoint
		// may have merged or been eliminated after the pair was walked,
		// so filter again. Survivors keep their relative (sorted) order.
		queue, pending = pending, queue
		keep := queue[:0]
		for _, e := range queue {
			oa, ob := unpack(e)
			a, b := arena[oa], arena[ob]
			if a.mergedIn == 0 && !a.gone && b.mergedIn == 0 && !b.gone {
				keep = append(keep, e)
			}
		}
		queue = keep

		// Rank the newborns below every existing cluster, preserving
		// their merge order, so ord-order keeps matching Algorithm 1's
		// list order, and give each the arena slot of its ord.
		minOrd -= int32(len(born))
		for i, c := range born {
			c.ord = minOrd + int32(i)
			arena[c.ord] = c
		}

		// Score only the fresh pairs: each newborn against every
		// cluster ranked after it (later newborns + survivors), sorted
		// into its own run for the next round's merge walk. The owners
		// lists are rebuilt from the new list before any scoring, so
		// they hold only live clusters and born[i] sees born[j>i].
		fresh = fresh[:0]
		if ag.owners != nil {
			ag.unindex(spare)
			ag.index(clusters)
			for _, c := range born {
				fresh = ag.appendIndexed(fresh, c)
			}
		} else {
			for i, c := range born {
				for _, x := range clusters[i+1:] {
					if s := clusterSim(c, x, cfg.Scores); s >= cfg.Theta {
						fresh = append(fresh, ag.entry(c, x, ag.key(s)))
					}
				}
			}
		}
		fresh, pending = sortRun(fresh, pending)
		admitted += int64(len(fresh))
	}
}

// index adds each cluster of list to the owners lists of its names, in
// list order.
func (ag *agenda) index(list []*workCluster) {
	for _, c := range list {
		for _, n := range c.names {
			ag.owners[n] = append(ag.owners[n], c)
		}
	}
}

// unindex empties the owners lists of every name the clusters of list
// carry.
func (ag *agenda) unindex(list []*workCluster) {
	for _, c := range list {
		for _, n := range c.names {
			ag.owners[n] = ag.owners[n][:0]
		}
	}
}

// appendIndexed appends c's candidate pairs found through the ≥θ name
// adjacency index: c against every cluster ranked after it that carries a
// neighbor of one of c's names. The owners lists hold only the clusters
// alive and un-merged at the start of the round, and the x.ord > c.ord
// filter pushes each pair from its smaller-ord side exactly once — for
// that to cover newborn-newborn pairs, all of a round's newborns must be
// indexed before any is scored.
//
// A single-name c scores each neighbor name once. Against a single-name
// partner that score is the cluster similarity, and the partner is
// reachable through no other name, so it takes no clusterSim call and no
// dedup mark. The index may be built at a lower θ than the run's, so a
// neighbor name scoring below θ is skipped whole: a partner with several
// names that reaches θ with c does so through one of its names, which the
// index lists. Partners with several names, and a c with several names,
// score through clusterSim, deduplicated by markBy.
func (ag *agenda) appendIndexed(out []uint64, c *workCluster) []uint64 {
	nbrs, owners, scores, theta := ag.cfg.Neighbors, ag.owners, ag.cfg.Scores, ag.cfg.Theta
	if len(c.names) == 1 {
		na := c.names[0]
		for _, nb := range nbrs[na] {
			// The lists are in ord order: skip a name whose owners all
			// rank before c without scoring it.
			xs := owners[nb]
			if len(xs) == 0 || xs[len(xs)-1].ord <= c.ord {
				continue
			}
			s := scores.Score(na, nb)
			if s < theta {
				continue
			}
			key := ag.key(s)
			for _, x := range xs {
				switch {
				case x.ord <= c.ord:
				case len(x.names) == 1:
					out = append(out, ag.entry(c, x, key))
				case x.markBy != c:
					x.markBy = c
					if s := clusterSim(c, x, scores); s >= theta {
						out = append(out, ag.entry(c, x, ag.key(s)))
					}
				}
			}
		}
		return out
	}
	for _, na := range c.names {
		for _, nb := range nbrs[na] {
			for _, x := range owners[nb] {
				if x.ord <= c.ord || x.markBy == c {
					continue
				}
				x.markBy = c
				if s := clusterSim(c, x, scores); s >= theta {
					out = append(out, ag.entry(c, x, ag.key(s)))
				}
			}
		}
	}
	return out
}

// Bucketed run sort. A run's entries carry few distinct keys (in a fig6
// run no run longer than sortRunSmall had more than sortRunKeys), and the
// enumeration emits each key's entries nearly in walk order, so a
// counting pass and a stable scatter by key usually leave the run sorted
// without a comparison sort.
const (
	sortRunSmall = 12 // runs up to this long go to slices.Sort, which insertion-sorts them
	sortRunKeys  = 4  // a run with more distinct keys goes to slices.Sort
)

// sortRun sorts the agenda run q into walk order. It returns the sorted
// run and a spare buffer, empty and not aliasing it: one of q and spare
// holds the run and the other is handed back. spare's contents are
// overwritten. A run of few distinct keys is scattered stably into spare
// by key; the result is then checked with slices.IsSorted and sorted
// outright if the scatter left it unsorted, so the output is the sorted
// run whatever order the entries came in.
func sortRun(q, spare []uint64) (run, rest []uint64) {
	if len(q) <= sortRunSmall {
		slices.Sort(q)
		return q, spare[:0]
	}
	var keys [sortRunKeys]uint64
	var at [sortRunKeys]int // per bucket: its size, then its next write offset
	nk := 0
	for _, e := range q {
		k := e >> keyShift
		b := 0
		for b < nk && keys[b] != k {
			b++
		}
		if b == nk {
			if nk == sortRunKeys {
				slices.Sort(q)
				return q, spare[:0]
			}
			keys[nk] = k
			nk++
		}
		at[b]++
	}
	if nk > 1 {
		// Lay the buckets out in key order: bucket b starts after every
		// bucket with a smaller key.
		var start [sortRunKeys]int
		for b := range nk {
			for o := range nk {
				if keys[o] < keys[b] {
					start[b] += at[o]
				}
			}
		}
		at = start
		out := slices.Grow(spare[:0], len(q))[:len(q)]
		for _, e := range q {
			k := e >> keyShift
			b := 0
			for keys[b] != k {
				b++
			}
			out[at[b]] = e
			at[b]++
		}
		q, spare = out, q
	}
	if !slices.IsSorted(q) {
		slices.Sort(q)
	}
	return q, spare[:0]
}
