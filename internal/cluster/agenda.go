package cluster

import (
	"math"
	"slices"

	"ube/internal/strsim"
	"ube/internal/trace"
	"ube/internal/ubedebug"
)

// This file implements the heap-agenda scheduling of Algorithm 1's merge
// rounds. The legacy path (run in cluster.go) re-enumerates, re-scores and
// re-sorts every candidate pair on every round, which the profile shows is
// where solve time goes: O(rounds × pairs log pairs) with the pair scoring
// itself repeated each round. The agenda path scores each pair exactly
// once and carries it across rounds:
//
//   - every pair is scored when one of its endpoints is created (at seed
//     time, or when a merge gives birth to a cluster);
//   - each round walks the candidate pairs in best-first order,
//     replicating the legacy sorted walk entry for entry;
//   - pairs whose endpoints both survive a round un-merged (necessarily
//     source-overlapping pairs, which can never merge) are carried to the
//     next round with their cached similarity — never re-scored. Because
//     the walk emits them in priority order, the carried list is already
//     sorted, so carrying costs O(1) per pair per round;
//   - only the fresh pairs — those involving a cluster born in the
//     previous round — are sorted each round, into a second run that a
//     two-pointer walk merges with the carried stream;
//   - pairs that reference a merged or eliminated cluster are stale and
//     are dropped on sight.
//
// The result is byte-identical to the legacy path (the differential test
// in agenda_test.go proves it on random universes). The equivalence rests
// on two facts worked out from run()'s semantics:
//
//  1. A pair that survives a round with both endpoints free is source-
//     overlapping: a disjoint pair with both endpoints free merges the
//     moment the walk reaches it. So carried-over pairs never merge and
//     never need rescoring, and every merge in round r involves at least
//     one cluster born in round r−1 (or round 1's seeds).
//
//  2. The legacy tiebreak for equal similarities is the pair of slice
//     positions, and the next round's slice is born-in-merge-order
//     followed by survivors in previous order. Assigning each born
//     cluster an ord below every existing cluster's (increasing within
//     one round's born list) therefore keeps ord-order identical to
//     slice-position order in every round, so the priority
//     (sim desc, ordLo asc, ordHi asc) walks in the legacy order.
//
// Entries carry the endpoints' immutable ord ranks (for comparisons) and
// their arena indices (to reach the cluster at processing time); they
// deliberately hold no pointers, so copying them in sorts, heap sifts and
// carry filters stays write-barrier-free.
//
// The similarity is stored as simKey(s), an integer whose ascending order
// is exactly descending similarity, so every comparison in the sort, the
// heap and the stream merge is a pure integer compare. With realistic
// vocabularies most candidate pairs tie on similarity, making comparator
// cost the dominant term of Match — float compares with branchy
// tiebreaks measurably lose to this.
type agendaEntry struct {
	key        int64 // simKey(sim): ascending key = descending similarity
	ordA, ordB int32 // walk priority tiebreak: endpoint ranks, ordA < ordB
	idxA, idxB int32 // endpoints' slots in the cluster arena
}

// simKey maps a similarity in [0,1] to an integer whose ascending order
// is descending similarity. IEEE-754 bit patterns of non-negative floats
// are order-isomorphic to their values, so the mapping is exact: equal
// sims share a key and distinct sims order strictly, preserving the
// legacy walk order tie-for-tie.
func simKey(sim float64) int64 {
	return -int64(math.Float64bits(sim))
}

// simKey30 is simKey for similarities that came out of a strsim.Table.
// The table stores scores as float32, so the float32 bit pattern loses
// nothing, and scores in [0,1] keep the pattern below 2^30 — small enough
// for the seed queue to be radix-sorted in three 10-bit passes instead of
// comparison-sorted. The key is bit-inverted so that, like simKey,
// ascending key order is descending similarity.
func simKey30(sim float64) int64 {
	return int64(0x3FFFFFFF - math.Float32bits(float32(sim)))
}

// entryBefore is the walk priority — the legacy sort order: similarity
// descending, then the position ranks ascending. It is a strict total
// order over distinct pairs, so walk order is unique.
func entryBefore(x, y agendaEntry) bool {
	switch {
	case x.key != y.key:
		return x.key < y.key
	case x.ordA != y.ordA:
		return x.ordA < y.ordA
	default:
		return x.ordB < y.ordB
	}
}

// entry builds an agenda entry with endpoints in ord order.
func entry(a, b *workCluster, key int64) agendaEntry {
	if a.ord > b.ord {
		a, b = b, a
	}
	return agendaEntry{key: key, ordA: a.ord, ordB: b.ord, idxA: a.idx, idxB: b.idx}
}

// runAgenda executes the merge rounds of Algorithm 1 (lines 5–23) on the
// sorted-run agenda. It produces the same cluster list, in the same order,
// as run(). When preGathered is set, seedQ is the unsorted round-1 agenda
// (from SeedPairs) and the seed enumeration is skipped; the gather only
// happens with a matrix scorer, so its keys are simKey30 keys.
func runAgenda(clusters []*workCluster, seedQ []agendaEntry, preGathered bool, cfg Config, sc *Scratch) []*workCluster {
	arena := sc.arena[:0]
	for i, c := range clusters {
		c.ord = int32(i)
		c.idx = int32(i)
		c.mergedIn = 0
		c.cand = false
		c.gone = false
		c.markBy = nil
		arena = append(arena, c)
	}

	// Table scores (dense matrix or θ-sparse) are float32-exact,
	// unlocking 30-bit keys and the radix seed sort; any other scorer
	// uses full float64-bit keys and a comparison sort. Both key forms
	// order identically to the similarity, so the walk is the same
	// either way.
	_, matrixKeys := cfg.Scores.(strsim.Table)
	mkKey := simKey
	if matrixKeys {
		mkKey = simKey30
	}

	// The round-1 pairs all involve newly created clusters, so scoring
	// them lazily buys nothing: enumerate and sort them once into the
	// carried queue. Later rounds only sort their own fresh trickle —
	// pairs involving a newborn — and merge it into the pre-sorted
	// carried stream with a two-pointer walk.
	nSeed := len(clusters)
	var owners [][]*workCluster
	if cfg.Neighbors != nil {
		if cap(sc.owners) < len(cfg.Neighbors) {
			sc.owners = make([][]*workCluster, len(cfg.Neighbors))
		}
		// Every owners list is empty between runs, so only the names
		// this run indexes need emptying again when it returns (a merge
		// only unions names its seeds already carry).
		owners = sc.owners[:len(cfg.Neighbors)]
		for _, c := range clusters {
			for _, n := range c.names {
				owners[n] = append(owners[n], c)
			}
		}
	}
	var queue []agendaEntry
	spare := sc.spare
	if preGathered {
		queue = seedQ
	} else {
		queue = sc.queue[:0]
		if owners != nil {
			for _, c := range clusters {
				queue = appendPairsIndexed(queue, c, owners, cfg, mkKey, false)
			}
		} else {
			for i := 0; i < len(clusters); i++ {
				for j := i + 1; j < len(clusters); j++ {
					if s := clusterSim(clusters[i], clusters[j], cfg.Scores); s >= cfg.Theta {
						queue = append(queue, entry(clusters[i], clusters[j], mkKey(s)))
					}
				}
			}
		}
	}
	queue, spare = sortRun(queue, spare, 0, nSeed, matrixKeys, sc)

	// Work counters accumulate locally and flush once at the single
	// return below, so the walk itself carries no atomics.
	var pops int64
	admitted := int64(len(queue))

	fresh := sc.fresh[:0]
	minOrd := int32(0)
	pending := sc.pending[:0]
	for round := 1; ; round++ {
		var born []*workCluster
		pending = pending[:0]

		// Walk the round's pairs best-first by merging the two sorted
		// streams: the carried queue and the round's fresh pairs. The
		// walk observes exactly the merged/free states the legacy
		// sorted walk observes, because the merged order equals the
		// legacy sort order and both walks mutate state identically.
		qi, fi := 0, 0
		for qi < len(queue) || fi < len(fresh) {
			pops++
			var e agendaEntry
			if qi < len(queue) && (fi == len(fresh) || entryBefore(queue[qi], fresh[fi])) {
				e = queue[qi]
				qi++
			} else {
				e = fresh[fi]
				fi++
			}
			a, b := arena[e.idxA], arena[e.idxB]
			if a.gone || b.gone {
				continue // stale: an endpoint was eliminated
			}
			aM, bM := a.mergedIn != 0, b.mergedIn != 0
			switch {
			case !aM && !bM:
				if disjointSources(a, b) {
					u := sc.newCluster()
					mergeInto(u, a, b, sc)
					u.idx = int32(len(arena))
					arena = append(arena, u)
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
		// and splice the newborns in front, exactly like the legacy
		// next-round slice.
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
		clusters = next
		if len(born) == 0 {
			// Hand the working buffers back for the next run, with
			// every owners list empty again.
			if owners != nil {
				for _, c := range arena[:nSeed] {
					for _, n := range c.names {
						owners[n] = owners[n][:0]
					}
				}
			}
			sc.arena = arena
			sc.queue, sc.pending, sc.fresh, sc.spare = queue, pending, fresh, spare
			sc.list = clusters
			cfg.Stats.Add(trace.CClusterRounds, int64(round))
			cfg.Stats.Add(trace.CClusterPops, pops)
			cfg.Stats.Add(trace.CClusterPairs, admitted)
			return clusters
		}

		// Carry the pairs that survived the round intact — an endpoint
		// may have merged or been eliminated after the pair was walked,
		// so filter again. Survivors keep their relative (sorted) order.
		queue, pending = pending, queue
		keep := queue[:0]
		for _, e := range queue {
			a, b := arena[e.idxA], arena[e.idxB]
			if a.mergedIn == 0 && !a.gone && b.mergedIn == 0 && !b.gone {
				keep = append(keep, e)
			}
		}
		queue = keep

		// Rank the newborns below every existing cluster, preserving
		// their merge order, so ord-order keeps matching the legacy
		// slice order.
		minOrd -= int32(len(born))
		for i, c := range born {
			c.ord = minOrd + int32(i)
		}

		// Score only the fresh pairs: each newborn against every
		// cluster ranked after it (later newborns + survivors), then
		// sort the batch into its own run for the next round's merge
		// walk. Newborns must all be indexed before any scoring so
		// that born[i] can see born[j>i] through the owners lists.
		fresh = fresh[:0]
		if owners != nil {
			for _, c := range born {
				for _, n := range c.names {
					owners[n] = append(owners[n], c)
				}
			}
			for _, c := range born {
				fresh = appendPairsIndexed(fresh, c, owners, cfg, mkKey, true)
			}
		} else {
			for i, c := range born {
				for _, x := range clusters[i+1:] {
					if s := clusterSim(c, x, cfg.Scores); s >= cfg.Theta {
						fresh = append(fresh, entry(c, x, mkKey(s)))
					}
				}
			}
		}
		fresh, spare = sortRun(fresh, spare, minOrd, nSeed-int(minOrd), matrixKeys, sc)
		admitted += int64(len(fresh))
	}
}

// sortRun sorts a batch of agenda entries into walk order — (key, ordA,
// ordB) ascending — and returns the sorted slice plus the spare buffer
// left over for the next call. In matrix mode the keys fit in 30 bits and
// the batch's ords are dense in [ordLo, ordLo+nOrds), so a 5-pass stable
// LSD counting sort (ordB, ordA, then three 10-bit key digits) replaces
// the comparison sort for batches big enough to amortize the bucket
// clears. The seed batch is the bulk of all pairs Match ever scores — on
// the synthetic workload round 1 holds ~75% of the total pair volume —
// and with heavily duplicated similarities a comparison sort spends most
// of its time in tiebreaks, so the linear sort is where the agenda path's
// headroom is.
func sortRun(queue, scratch []agendaEntry, ordLo int32, nOrds int, matrixKeys bool, sc *Scratch) (sorted, spare []agendaEntry) {
	if !matrixKeys || len(queue) < 128 {
		slices.SortFunc(queue, func(x, y agendaEntry) int {
			switch {
			case x.key != y.key:
				if x.key < y.key {
					return -1
				}
				return 1
			case x.ordA != y.ordA:
				return int(x.ordA - y.ordA)
			default:
				return int(x.ordB - y.ordB)
			}
		})
		if ubedebug.Enabled {
			checkSortedRun(queue)
		}
		return queue, scratch
	}

	const digitBits = 10
	const digits = 1 << digitBits
	if cap(scratch) < len(queue) {
		scratch = make([]agendaEntry, len(queue))
	}
	src, dst := queue, scratch[:len(queue)]
	if n := max(nOrds, digits); cap(sc.counts) < n {
		sc.counts = make([]int32, n)
	}
	counts := sc.counts[:cap(sc.counts)]

	// prefixSum turns the histogram into starting offsets.
	prefixSum := func(cnt []int32) {
		var sum int32
		for i, c := range cnt {
			cnt[i] = sum
			sum += c
		}
	}

	// Each pass is a stable counting sort on one field, least significant
	// first. The loops are hand-unrolled per field rather than closing
	// over an extractor function: an indirect call per element per pass
	// would cost more than the sort itself at these sizes.

	// Pass 1: ordB, offset to the dense [0, nOrds) bucket range.
	cnt := counts[:nOrds]
	clear(cnt)
	for i := range src {
		cnt[src[i].ordB-ordLo]++
	}
	prefixSum(cnt)
	for i := range src {
		d := src[i].ordB - ordLo
		dst[cnt[d]] = src[i]
		cnt[d]++
	}
	src, dst = dst, src

	// Pass 2: ordA.
	clear(cnt)
	for i := range src {
		cnt[src[i].ordA-ordLo]++
	}
	prefixSum(cnt)
	for i := range src {
		d := src[i].ordA - ordLo
		dst[cnt[d]] = src[i]
		cnt[d]++
	}
	src, dst = dst, src

	// Passes 3–5: the 30-bit key, 10 bits at a time. Real workloads
	// draw keys from a handful of distinct scores, so often every key
	// agrees on the high digits — those passes reorder nothing and are
	// skipped (a one-traversal scan buys up to two two-traversal
	// passes).
	var diff int32
	k0 := int32(src[0].key)
	for i := range src {
		diff |= int32(src[i].key) ^ k0
	}
	maxShift := 3 * digitBits
	switch {
	case diff == 0:
		maxShift = 0
	case diff>>digitBits == 0:
		maxShift = digitBits
	case diff>>(2*digitBits) == 0:
		maxShift = 2 * digitBits
	}
	cnt = counts[:digits]
	for shift := 0; shift < maxShift; shift += digitBits {
		clear(cnt)
		for i := range src {
			cnt[int32(src[i].key>>shift)&(digits-1)]++
		}
		prefixSum(cnt)
		for i := range src {
			d := int32(src[i].key>>shift) & (digits - 1)
			dst[cnt[d]] = src[i]
			cnt[d]++
		}
		src, dst = dst, src
	}
	if ubedebug.Enabled {
		checkSortedRun(src)
	}
	return src, dst
}

// checkSortedRun asserts the sorted-run post-condition the merge walk
// depends on: entries in walk order (key, ordA, ordB ascending). Only
// reached under the ubedebug build tag.
func checkSortedRun(run []agendaEntry) {
	for i := 1; i < len(run); i++ {
		ubedebug.Assert(!entryBefore(run[i], run[i-1]),
			"cluster: sort run out of walk order at %d: %+v before %+v", i, run[i-1], run[i])
	}
}

// appendPairsIndexed appends c's candidate pairs found through the ≥θ
// name adjacency index, scoring only cluster pairs with a known
// above-threshold name link (the same enumeration as
// collectPairsIndexed). With skipDead set (mid-run, when the owners lists
// may reference merged or eliminated clusters) dead partners are skipped
// rather than compacted. The x.ord > c.ord filter pushes each pair from
// its smaller-ord side exactly once — for that to cover newborn-newborn
// pairs, all of a round's newborns must be indexed before any is scored.
func appendPairsIndexed(out []agendaEntry, c *workCluster, owners [][]*workCluster, cfg Config, mkKey func(float64) int64, skipDead bool) []agendaEntry {
	for _, na := range c.names {
		for _, nb := range cfg.Neighbors[na] {
			for _, x := range owners[nb] {
				if x.ord <= c.ord || x.markBy == c {
					continue
				}
				if skipDead && (x.gone || x.mergedIn != 0) {
					continue
				}
				x.markBy = c
				if s := clusterSim(c, x, cfg.Scores); s >= cfg.Theta {
					out = append(out, entry(c, x, mkKey(s)))
				}
			}
		}
	}
	return out
}
